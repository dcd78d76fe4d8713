package sim

import (
	"context"
	"strings"
	"testing"

	"jouppi/internal/introspect"
	"jouppi/internal/telemetry"
	"jouppi/internal/workload"
)

// shardPlan builds a sharded system for cfg and reports its plan.
func shardPlan(cfg Config, shards int) (ShardInfo, error) {
	sys, err := NewShardedSystem(cfg, shards)
	if err != nil {
		return ShardInfo{}, err
	}
	return sys.Info(), nil
}

func TestShardPlanDecisions(t *testing.T) {
	info, err := shardPlan(BaselineSystem(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Sharded() || info.Shards != 4 || info.Requested != 4 || info.Fallback != "" {
		t.Fatalf("baseline plan = %+v, want 4 clean shards", info)
	}

	info, err = shardPlan(BaselineSystem(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Sharded() || info.Shards != 1 || info.Fallback != "" {
		t.Fatalf("one-shard plan = %+v, want sequential without fallback", info)
	}

	coupled := BaselineSystem()
	coupled.D.VictimCacheEntries = 4
	info, err = shardPlan(coupled, 4)
	if err != nil {
		t.Fatal(err)
	}
	if info.Sharded() || info.Shards != 1 || info.Fallback == "" {
		t.Fatalf("victim plan = %+v, want fallback to 1 shard with a reason", info)
	}
	if !strings.Contains(info.Fallback, "victim") {
		t.Errorf("fallback reason %q does not name the victim cache", info.Fallback)
	}

	bad := BaselineSystem()
	bad.D.MissCacheEntries, bad.D.VictimCacheEntries = 2, 2
	if _, err := shardPlan(bad, 4); err == nil {
		t.Error("invalid augmentation accepted")
	}
}

// TestReplayShardedMatchesRunBenchmark is the facade half of the
// bit-identity pin: a sharded ReplayManyContext pass must reproduce
// RunBenchmark exactly for every configuration it carries, on both the
// sharded and the fallback route.
func TestReplayShardedMatchesRunBenchmark(t *testing.T) {
	const scale = 0.02
	cases := []struct {
		name    string
		cfg     Config
		sharded bool
	}{
		{"baseline", BaselineSystem(), true},
		{"improved", ImprovedSystem(), false}, // victim + stream buffers force the fallback
	}
	cfgs := make([]Config, len(cases))
	for i, tc := range cases {
		cfgs[i] = tc.cfg
	}
	got, err := ReplayManyContext(context.Background(), "ccom", scale, 4, nil, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range cases {
		want, err := RunBenchmark("ccom", scale, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		info, err := shardPlan(tc.cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if info.Sharded() != tc.sharded {
			t.Errorf("%s: sharded = %v (info %+v), want %v", tc.name, info.Sharded(), info, tc.sharded)
		}
		if got[i] != want {
			t.Errorf("%s: sharded results diverge\n got %+v\nwant %+v", tc.name, got[i], want)
		}
	}
}

// TestShardedIntrospectionHeatMerges pins the per-shard probe story:
// every L1 set belongs to one shard, so summing the shard probes'
// heatmaps reproduces the sequential heatmap exactly, and the replay's
// numbers are untouched by the attached probes.
func TestShardedIntrospectionHeatMerges(t *testing.T) {
	const scale = 0.02
	opts := Introspection{Heatmap: true, Window: -1}
	ctx := context.Background()

	want, seqProbe, err := RunBenchmarkIntrospected(ctx, "ccom", scale, BaselineSystem(), opts)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := NewShardedSystem(BaselineSystem(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Info().Sharded() {
		t.Fatalf("baseline did not shard: %+v", sys.Info())
	}
	var probes []*introspect.SystemProbe
	for _, shard := range sys.h.Systems() {
		probes = append(probes, introspect.Attach(shard, opts.toOptions()))
	}
	if len(probes) != 4 {
		t.Fatalf("got %d probe sets, want one per shard", len(probes))
	}
	if err := replayShardedBenchmark(ctx, sys, "ccom", scale); err != nil {
		t.Fatal(err)
	}
	if got := sys.Results(); got != want {
		t.Errorf("introspected sharded results diverge\n got %+v\nwant %+v", got, want)
	}

	for _, side := range []struct {
		name string
		seq  []introspect.SetCounts
		pick func(*introspect.SystemProbe) []introspect.SetCounts
	}{
		{"I", seqProbe.I.Heat(), func(sp *introspect.SystemProbe) []introspect.SetCounts { return sp.I.Heat() }},
		{"D", seqProbe.D.Heat(), func(sp *introspect.SystemProbe) []introspect.SetCounts { return sp.D.Heat() }},
	} {
		merged := make([]introspect.SetCounts, len(side.seq))
		for _, sp := range probes {
			part := side.pick(sp)
			if len(part) != len(merged) {
				t.Fatalf("%s heat length %d, want %d", side.name, len(part), len(merged))
			}
			for i, h := range part {
				merged[i].Accesses += h.Accesses
				merged[i].Misses += h.Misses
				merged[i].Evictions += h.Evictions
			}
		}
		for i := range merged {
			if merged[i] != side.seq[i] {
				t.Errorf("%s set %d: merged %+v, sequential %+v", side.name, i, merged[i], side.seq[i])
			}
		}
	}
}

// replayShardedBenchmark feeds the named workload through an
// already-built sharded system (test helper; the production path is
// ReplayManyContext, which builds its own systems).
func replayShardedBenchmark(ctx context.Context, sys *ShardedSystem, name string, scale float64) error {
	b, err := benchmark(name)
	if err != nil {
		return err
	}
	src := workload.NewSource(b, scale)
	defer src.Close()
	return sys.ReplaySource(ctx, src)
}

func TestReplayShardedTelemetryAndCancellation(t *testing.T) {
	reg := telemetry.NewRegistry()
	if _, err := ReplayManyContext(context.Background(), "ccom", 0.02, 4, reg, []Config{BaselineSystem()}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["fanout_records_total"] == 0 {
		t.Error("engine telemetry not published")
	}
	if got := snap["fanout_consumers"]; got != 4 {
		t.Errorf("fanout_consumers = %v, want one consumer per shard (4)", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReplayManyContext(ctx, "ccom", 0.02, 4, nil, []Config{BaselineSystem()}); err == nil {
		t.Error("cancelled sharded replay succeeded")
	}
}

func TestReplayShardedErrors(t *testing.T) {
	replay := func(name string, scale float64, cfg Config) error {
		_, err := ReplayManyContext(context.Background(), name, scale, 4, nil, []Config{cfg})
		return err
	}
	if err := replay("nonesuch", 0.02, BaselineSystem()); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := replay("ccom", 0, BaselineSystem()); err == nil {
		t.Error("zero scale accepted")
	}
	bad := BaselineSystem()
	bad.L1I.LineSize = 5
	if err := replay("ccom", 0.02, bad); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewShardedSystem(bad, 4); err == nil {
		t.Error("NewShardedSystem accepted invalid config")
	}
}
