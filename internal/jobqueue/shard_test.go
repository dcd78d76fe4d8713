package jobqueue

import (
	"context"
	"strings"
	"testing"

	"jouppi/internal/trace"
)

// TestSpecShardsValidation pins the accepted shard range: 0 (default,
// sequential) through 64 (the partitioner's own cap).
func TestSpecShardsValidation(t *testing.T) {
	for _, ok := range []int{0, 1, 2, 64} {
		s := validSpec()
		s.Shards = ok
		if err := s.Validate(); err != nil {
			t.Errorf("shards=%d rejected: %v", ok, err)
		}
	}
	for _, bad := range []int{-1, 65, 1000} {
		s := validSpec()
		s.Shards = bad
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), "shards") {
			t.Errorf("shards=%d: got %v, want shards range error", bad, err)
		}
	}
}

// TestCacheKeyIgnoresShards pins the policy boundary: sharding changes
// how a result is computed, never what it is, so a sharded and a
// sequential submission of the same job must share one cache entry.
func TestCacheKeyIgnoresShards(t *testing.T) {
	base := validSpec()
	key := base.CacheKey("v1")
	s := validSpec()
	s.Shards = 8
	if s.CacheKey("v1") != key {
		t.Error("shards leaked into the cache key")
	}
}

// TestSubmitRequestShardsRoundTrip checks the API field reaches the
// spec and is range-checked at submission time.
func TestSubmitRequestShardsRoundTrip(t *testing.T) {
	req := &SubmitRequest{Benchmark: "liver", Scale: 0.05, Shards: 4}
	spec, err := req.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Shards != 4 {
		t.Fatalf("spec.Shards = %d, want 4", spec.Shards)
	}
	req.Shards = 128
	if _, err := req.ToSpec(); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("shards=128: got %v, want shards range error", err)
	}
}

// TestRunnerShardedUploadParity runs the same uploaded-trace job
// sequentially and sharded and requires byte-identical encoded results.
// The config list mixes a shardable baseline with a victim-cache config
// that must take the sequential fallback — parity covers both routes.
func TestRunnerShardedUploadParity(t *testing.T) {
	trace := testTraceDin(400)
	spec := uploadSpec(t, trace, ";size=8192;victim=4")

	seq, err := DefaultRunner(context.Background(), spec, "test")
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards = 4
	sharded, err := DefaultRunner(context.Background(), spec, "test")
	if err != nil {
		t.Fatal(err)
	}
	seqBytes, err := seq.Encode()
	if err != nil {
		t.Fatal(err)
	}
	shardedBytes, err := sharded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(seqBytes) != string(shardedBytes) {
		t.Errorf("sharded upload result diverged\n--- sequential ---\n%s--- sharded ---\n%s",
			seqBytes, shardedBytes)
	}
}

// TestRunnerShardedBenchmarkParity does the same for a generated
// workload: the sharded per-config path must reproduce the fan-out
// engine's numbers exactly.
func TestRunnerShardedBenchmarkParity(t *testing.T) {
	cfgs, err := ParseConfigs(";size=8192")
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Benchmark: "liver", Scale: 0.05, Configs: cfgs, Retries: -1}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	seq, err := DefaultRunner(context.Background(), spec, "test")
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards = 4
	sharded, err := DefaultRunner(context.Background(), spec, "test")
	if err != nil {
		t.Fatal(err)
	}
	seqBytes, err := seq.Encode()
	if err != nil {
		t.Fatal(err)
	}
	shardedBytes, err := sharded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(seqBytes) != string(shardedBytes) {
		t.Errorf("sharded benchmark result diverged\n--- sequential ---\n%s--- sharded ---\n%s",
			seqBytes, shardedBytes)
	}
}

// TestRunnerShardedCancellation pins that a sharded replay still
// honours cancellation between accesses.
func TestRunnerShardedCancellation(t *testing.T) {
	spec := uploadSpec(t, testTraceDin(400), "")
	spec.Shards = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DefaultRunner(ctx, spec, "test"); err == nil {
		t.Fatal("cancelled sharded run succeeded")
	}
}

// TestRunnerShardedMultiConfigBenchmark runs a two-config benchmark job
// sharded: one generated stream feeds both configurations' shards in a
// single pass (one replay span, one consumer span per shard). Its
// result must be byte-identical to the unsharded job's and share its
// cache key.
func TestRunnerShardedMultiConfigBenchmark(t *testing.T) {
	cfgs, err := ParseConfigs("line=32;assoc=2")
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Benchmark: "ccom", Scale: 0.05, Configs: cfgs, Retries: -1}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	seq, err := DefaultRunner(context.Background(), spec, "test")
	if err != nil {
		t.Fatal(err)
	}
	key := spec.CacheKey("test")

	const shards = 4
	spec.Shards = shards
	tr := trace.New(trace.Options{})
	root := tr.Root("job", "sharded-multi", nil)
	sharded, err := DefaultRunner(trace.ContextWith(context.Background(), root), spec, "test")
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if spec.CacheKey("test") != key {
		t.Error("sharding changed the cache key")
	}
	seqBytes, err := seq.Encode()
	if err != nil {
		t.Fatal(err)
	}
	shardedBytes, err := sharded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(seqBytes) != string(shardedBytes) {
		t.Errorf("sharded two-config result diverged\n--- sequential ---\n%s--- sharded ---\n%s",
			seqBytes, shardedBytes)
	}

	td, ok := tr.TraceByID("sharded-multi")
	if !ok {
		t.Fatal("no trace retained")
	}
	var replays, consumers int
	for _, s := range td.Spans {
		switch s.Name {
		case "replay":
			replays++
		case "consumer":
			consumers++
		}
	}
	if replays != 1 || consumers != len(cfgs)*shards {
		t.Errorf("got %d replay spans and %d consumer spans, want 1 pass over %d consumers",
			replays, consumers, len(cfgs)*shards)
	}
}
