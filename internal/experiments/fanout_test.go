package experiments

import (
	"context"
	"strings"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/fanout"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/shardreplay"
	"jouppi/internal/telemetry"
)

// TestReplayGroupMatchesSequentialHelpers pins the rewiring's bit-identity
// claim at the helper level: one fan-out pass with a classified-baseline
// consumer and a front-end consumer must produce exactly the numbers the
// sequential helpers produce from separate passes, and the pass books
// every record it read once per consumer to the progress counter.
func TestReplayGroupMatchesSequentialHelpers(t *testing.T) {
	cfg := smallCfg()
	tr := cfg.Traces.Get("ccom")

	seqBC := runBaselineClassified(cfg, tr.Source(), dSide, 4096, 16)
	seqFront := runFront(cfg, tr.Source(), dSide, func() core.FrontEnd {
		return core.NewBaseline(cache.MustNew(l1Config(4096, 16)), nil, core.DefaultTiming())
	})

	var p pass
	bc := p.baseline(dSide, 4096, 16)
	fr := p.front(dSide, core.NewBaseline(cache.MustNew(l1Config(4096, 16)), nil, core.DefaultTiming()))
	cfg.Accesses = telemetry.NewRegistry().Counter("sim_replay_accesses_total", "records replayed")
	replayGroup(cfg, tr.Source(), p...)
	if got, want := cfg.Accesses.Value(), 2*uint64(tr.Len()); got != want {
		t.Errorf("replayGroup booked %d records, want %d (every record once per consumer)", got, want)
	}

	if got := bc.counts(); got != seqBC {
		t.Errorf("classified fan-out run differs from sequential:\n got %+v\nwant %+v", got, seqBC)
	}
	if got := fr.fe.Stats(); got != seqFront {
		t.Errorf("front-end fan-out run differs from sequential:\n got %+v\nwant %+v", got, seqFront)
	}
}

// TestRunAllRelaysConsumerPanic checks the shield path end to end: a
// panic inside a fan-out consumer surfaces as a failed Result that names
// the consumer and carries the consumer goroutine's stack.
func TestRunAllRelaysConsumerPanic(t *testing.T) {
	exp := Experiment{ID: "boom", Title: "panicking fan-out consumer", Run: func(cfg Config) *Result {
		tr := cfg.Traces.Get("ccom")
		cfg.parallelFor(1, func(int) {
			replayGroup(cfg, tr.Source(),
				fanout.Func(func(memtrace.Access) {}),
				fanout.Func(func(memtrace.Access) { panic("injected consumer failure") }))
		})
		return &Result{ID: "boom"}
	}}
	out, err := RunAll(context.Background(), smallCfg(), RunOptions{Experiments: []Experiment{exp}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d results, want 1", len(out))
	}
	r := out[0]
	if !strings.Contains(r.Err, "consumer 1 panicked: injected consumer failure") {
		t.Errorf("Err = %q, want the relayed consumer panic", r.Err)
	}
	if r.Stack == "" {
		t.Error("failed result lost the consumer stack")
	}
}

// shardBomb is a shard sink that panics on its first access.
type shardBomb struct{}

func (shardBomb) Access(memtrace.Access) { panic("boom") }

// TestRunAllRelaysShardPanic checks that a panic inside a sharded
// replay's shard surfaces as a failed Result carrying the shard
// goroutine's own stack — the frames of the sink that panicked — not
// the stack of the frame that relayed it.
func TestRunAllRelaysShardPanic(t *testing.T) {
	exp := Experiment{ID: "boom", Title: "panicking shard", Run: func(cfg Config) *Result {
		dec := shardreplay.PlanHierarchy(hierarchy.Config{}, 2)
		tr := cfg.Traces.Get("ccom")
		_ = shardreplay.New(shardreplay.Config{}).Replay(context.Background(), tr.Source(),
			dec.Partition(), []memtrace.Sink{shardBomb{}, memtrace.SinkFunc(func(memtrace.Access) {})})
		return &Result{ID: "boom"}
	}}
	out, err := RunAll(context.Background(), smallCfg(), RunOptions{Experiments: []Experiment{exp}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d results, want 1", len(out))
	}
	r := out[0]
	if !strings.Contains(r.Err, "0 panicked: boom") {
		t.Errorf("Err = %q, want the relayed shard panic", r.Err)
	}
	if !strings.Contains(r.Stack, "shardBomb") {
		t.Errorf("Stack lacks the panicking shard's frames:\n%s", r.Stack)
	}
}
