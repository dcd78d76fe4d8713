package shardreplay_test

// Engine-level tests: argument validation, the inline fast path, the
// multi-shard pass, cancellation on both paths, panic relay, and the
// fan-out telemetry. These exercise the machinery the differential
// suite relies on, with synthetic sinks instead of cache systems.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"jouppi/internal/fanout"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/shardreplay"
	"jouppi/internal/telemetry"
)

// synthTrace builds a trace of n line-aligned accesses striding through
// the baseline L1's sets, so every shard of any small partition gets
// work.
func synthTrace(n int) *memtrace.Trace {
	tr := memtrace.NewTrace(n)
	for i := 0; i < n; i++ {
		kind := memtrace.Ifetch
		if i%3 == 1 {
			kind = memtrace.Load
		} else if i%7 == 2 {
			kind = memtrace.Store
		}
		tr.Append(memtrace.Access{Kind: kind, Addr: memtrace.Addr(uint64(i) * 16)})
	}
	return tr
}

// basePartition returns the baseline hierarchy's partition for k shards.
func basePartition(t *testing.T, k int) shardreplay.Partition {
	t.Helper()
	dec := shardreplay.PlanHierarchy(hierarchy.Config{}, k)
	if !dec.Sharded() {
		t.Fatalf("baseline config did not shard: %q", dec.Fallback)
	}
	return dec.Partition()
}

// collector is a sink recording every access it sees (single-goroutine
// per shard by the engine contract, so no lock).
type collector struct{ got []memtrace.Access }

func (c *collector) Access(a memtrace.Access) { c.got = append(c.got, a) }

func TestReplayValidation(t *testing.T) {
	eng := shardreplay.New(shardreplay.Config{})
	p := basePartition(t, 2)
	if err := eng.Replay(context.Background(), nil, p, []memtrace.Sink{&collector{}, &collector{}}); !errors.Is(err, memtrace.ErrNilSource) {
		t.Errorf("nil source: got %v", err)
	}
	src := synthTrace(8).Source()
	if err := eng.Replay(context.Background(), src, p, []memtrace.Sink{&collector{}, nil}); !errors.Is(err, shardreplay.ErrNilShard) {
		t.Errorf("nil shard: got %v", err)
	}
	if err := eng.Replay(context.Background(), src, p, make([]memtrace.Sink, 3, 3)); err == nil {
		t.Error("partition/sink count mismatch accepted")
	}
	if err := eng.Replay(context.Background(), src, p, nil); err != nil {
		t.Errorf("zero sinks should be a no-op, got %v", err)
	}
}

// TestReplayRoutesEveryRecordOnce pins the core delivery contract: with
// K sinks, every record lands exactly once, on the shard the partition
// assigns, in its original relative order.
func TestReplayRoutesEveryRecordOnce(t *testing.T) {
	const n = 10_000
	tr := synthTrace(n)
	p := basePartition(t, 3)
	sinks := []*collector{{}, {}, {}}
	eng := shardreplay.New(shardreplay.Config{ChunkSize: 256, Ring: 2})
	if err := eng.Replay(context.Background(), tr.Source(),
		p, []memtrace.Sink{sinks[0], sinks[1], sinks[2]}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, s := range sinks {
		total += len(s.got)
		last := -1
		for _, a := range s.got {
			if p.ShardOf(a.Addr) != i {
				t.Fatalf("shard %d got foreign address %#x", i, a.Addr)
			}
			// Addresses ascend in synthTrace, so in-order delivery means
			// strictly ascending addresses within a shard.
			if int(a.Addr) <= last {
				t.Fatalf("shard %d out of order at %#x", i, a.Addr)
			}
			last = int(a.Addr)
		}
	}
	if total != n {
		t.Fatalf("delivered %d of %d records", total, n)
	}
}

// TestReplayInlineSingleShard pins that one sink replays inline and
// sees the full stream in order.
func TestReplayInlineSingleShard(t *testing.T) {
	tr := synthTrace(5000)
	var c collector
	eng := shardreplay.New(shardreplay.Config{ChunkSize: 512})
	if err := eng.Replay(context.Background(), tr.Source(),
		shardreplay.Partition{}, []memtrace.Sink{&c}); err != nil {
		t.Fatal(err)
	}
	if len(c.got) != tr.Len() {
		t.Fatalf("inline replay delivered %d of %d", len(c.got), tr.Len())
	}
}

// slowSource trickles records one at a time (not a ChunkSource), also
// covering fan-out's per-record fill fallback.
type slowSource struct {
	recs []memtrace.Access
	i    int
}

func (s *slowSource) Next() (memtrace.Access, bool) {
	if s.i >= len(s.recs) {
		return memtrace.Access{}, false
	}
	a := s.recs[s.i]
	s.i++
	return a, true
}

func TestReplayPlainSourceFallback(t *testing.T) {
	tr := synthTrace(3000)
	src := &slowSource{}
	tr.Each(func(a memtrace.Access) { src.recs = append(src.recs, a) })
	p := basePartition(t, 2)
	a, b := &collector{}, &collector{}
	eng := shardreplay.New(shardreplay.Config{ChunkSize: 128})
	if err := eng.Replay(context.Background(), src, p, []memtrace.Sink{a, b}); err != nil {
		t.Fatal(err)
	}
	if got := len(a.got) + len(b.got); got != tr.Len() {
		t.Fatalf("delivered %d of %d", got, tr.Len())
	}
}

func TestReplayCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := synthTrace(100_000)
	p := basePartition(t, 2)
	eng := shardreplay.New(shardreplay.Config{})
	err := eng.Replay(ctx, tr.Source(), p, []memtrace.Sink{&collector{}, &collector{}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("sharded cancellation: got %v", err)
	}
	var c collector
	if err := eng.Replay(ctx, tr.Source(), shardreplay.Partition{}, []memtrace.Sink{&c}); !errors.Is(err, context.Canceled) {
		t.Errorf("inline cancellation: got %v", err)
	}
}

// blockingSink parks until released, letting the producer fill the
// shard's ring and block — then cancellation must still win.
type blockingSink struct{ release chan struct{} }

func (s *blockingSink) Access(memtrace.Access) { <-s.release }

func TestReplayCancellationUnderBackpressure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := synthTrace(200_000)
	p := basePartition(t, 2)
	blocked := &blockingSink{release: make(chan struct{})}
	eng := shardreplay.New(shardreplay.Config{ChunkSize: 256, Ring: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	var err error
	go func() {
		defer wg.Done()
		err = eng.Replay(ctx, tr.Source(), p, []memtrace.Sink{blocked, &collector{}})
	}()
	cancel()
	close(blocked.release)
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("backpressured cancellation: got %v", err)
	}
}

// panicSink panics on the nth access it sees.
type panicSink struct{ n int }

func (s *panicSink) Access(memtrace.Access) {
	s.n--
	if s.n <= 0 {
		panic("boom")
	}
}

func TestReplayShardPanicRelay(t *testing.T) {
	tr := synthTrace(50_000)
	p := basePartition(t, 2)
	eng := shardreplay.New(shardreplay.Config{ChunkSize: 256, Ring: 2})
	defer func() {
		v := recover()
		sp, ok := v.(*fanout.ConsumerPanic)
		if !ok {
			t.Fatalf("recovered %T %v, want *fanout.ConsumerPanic", v, v)
		}
		if sp.Val != "boom" {
			t.Errorf("relayed value %v", sp.Val)
		}
		if len(sp.Stack) == 0 {
			t.Error("relayed panic has no stack")
		}
		if sp.Error() == "" {
			t.Error("empty Error()")
		}
	}()
	_ = eng.Replay(context.Background(), tr.Source(), p,
		[]memtrace.Sink{&panicSink{n: 100}, &collector{}})
	t.Fatal("replay returned instead of re-panicking")
}

func TestEngineTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := synthTrace(20_000)
	p := basePartition(t, 2)
	eng := shardreplay.New(shardreplay.Config{ChunkSize: 256, Ring: 2})
	eng.AttachTelemetry(reg)
	if err := eng.Replay(context.Background(), tr.Source(), p,
		[]memtrace.Sink{&collector{}, &collector{}}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap["fanout_records_total"]; got != float64(tr.Len()) {
		t.Errorf("records_total = %v, want %d", got, tr.Len())
	}
	if snap["fanout_chunks_total"] == 0 {
		t.Error("chunks_total stayed zero")
	}
	if got := snap["fanout_consumers"]; got != 2 {
		t.Errorf("shards gauge = %v, want 2", got)
	}
	if _, ok := snap["fanout_consumer_lag_0"]; !ok {
		t.Error("no per-shard lag gauge registered")
	}
	// Detach: the engine must run metric-free again.
	eng.AttachTelemetry(nil)
	if err := eng.Replay(context.Background(), tr.Source(), p,
		[]memtrace.Sink{&collector{}, &collector{}}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot()["fanout_records_total"]; got != float64(tr.Len()) {
		t.Errorf("detached engine still published: %v", got)
	}
}

// TestReplayHierarchiesOnePass pins the configs × shards pass: several
// hierarchies — sharded at different counts and one on the fallback
// path — replay one stream together, each bit-identical to its own
// sequential replay, with one fan-out consumer per effective shard.
func TestReplayHierarchiesOnePass(t *testing.T) {
	tr := diffTrace(t, "ccom")
	victim := hierarchy.Config{DAugment: hierarchy.Augment{Kind: hierarchy.VictimCache, Entries: 4}}
	cases := []struct {
		cfg    hierarchy.Config
		shards int
	}{{hierarchy.Config{}, 4}, {victim, 4}, {hierarchy.Config{}, 3}}
	hs := make([]*shardreplay.Hierarchy, len(cases))
	consumers := 0
	for i, c := range cases {
		h, err := shardreplay.NewHierarchy(c.cfg, c.shards)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
		consumers += h.Shards()
	}
	if consumers != 4+1+3 {
		t.Fatalf("effective shards %d, want the victim config to fall back to 1", consumers)
	}
	reg := telemetry.NewRegistry()
	eng := shardreplay.New(shardreplay.Config{})
	eng.AttachTelemetry(reg)
	if err := eng.ReplayHierarchies(context.Background(), tr.Source(), hs...); err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		requireBitIdentical(t, replaySequential(t, c.cfg, tr), hs[i].Results(tr.Instructions()))
	}
	snap := reg.Snapshot()
	if got := snap["fanout_consumers"]; got != float64(consumers) {
		t.Errorf("fanout_consumers = %v, want %d", got, consumers)
	}
	if got := snap["fanout_records_total"]; got != float64(tr.Len()) {
		t.Errorf("fanout_records_total = %v, want one pass of %d", got, tr.Len())
	}
}
