package sim

import (
	"context"
	"testing"
	"time"

	"jouppi/internal/telemetry"
)

// replayManyConfigs is a paper-flavoured sweep: baseline, miss and victim
// caches at a few entry counts, stream buffers, and the improved system.
func replayManyConfigs() []Config {
	return []Config{
		BaselineSystem(),
		{D: Augmentation{MissCacheEntries: 2}},
		{D: Augmentation{MissCacheEntries: 4}},
		{D: Augmentation{VictimCacheEntries: 2}},
		{D: Augmentation{VictimCacheEntries: 4}},
		{I: Augmentation{Stream: &StreamOptions{Ways: 1, Depth: 4}}},
		{D: Augmentation{Stream: &StreamOptions{Ways: 4, Depth: 4}}},
		ImprovedSystem(),
	}
}

// TestReplayManyMatchesRunBenchmark is the facade-level bit-identity pin:
// one fan-out pass across eight configurations must reproduce exactly the
// Results of eight independent sequential RunBenchmark replays.
func TestReplayManyMatchesRunBenchmark(t *testing.T) {
	const scale = 0.02
	cfgs := replayManyConfigs()
	got, err := ReplayMany("ccom", scale, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("got %d results, want %d", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := RunBenchmark("ccom", scale, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("config %d: fan-out results differ from sequential:\n got %+v\nwant %+v",
				i, got[i], want)
		}
	}
}

// TestReplayManyErrors covers argument validation.
func TestReplayManyErrors(t *testing.T) {
	if _, err := ReplayMany("ccom", 0, nil); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := ReplayMany("no-such-benchmark", 0.1, nil); err == nil {
		t.Error("unknown benchmark accepted")
	}
	bad := Config{D: Augmentation{MissCacheEntries: 2, VictimCacheEntries: 2}}
	if _, err := ReplayMany("ccom", 0.1, []Config{BaselineSystem(), bad}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestReplayManyTelemetryAndCancellation covers the registry hook and the
// context path in one small run.
func TestReplayManyTelemetryAndCancellation(t *testing.T) {
	reg := telemetry.NewRegistry()
	res, err := ReplayManyContext(context.Background(), "ccom", 0.02, 0, reg,
		[]Config{BaselineSystem(), ImprovedSystem()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	snap := reg.Snapshot()
	if snap["fanout_records_total"] == 0 || snap["fanout_consumers"] != 2 {
		t.Errorf("engine telemetry missing: %v", snap)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := ReplayManyContext(ctx, "ccom", 4, 0, nil,
		[]Config{BaselineSystem(), ImprovedSystem()}); err == nil {
		t.Error("expired context did not abort the replay")
	}
}
