package shardreplay_test

// Telemetry exactness under sharding: K shard systems attached to one
// registry share a name-idempotent counter set, each publishing its own
// deltas. After the replay the shared counters must equal the
// sequential replay's exactly — no double counts, no lost remainders.
// Under -race this is also the pin that delta publication from shard
// goroutines is race-free.

import (
	"context"
	"strings"
	"testing"

	"jouppi/internal/hierarchy"
	"jouppi/internal/shardreplay"
	"jouppi/internal/telemetry"
)

// simSnapshot filters a registry snapshot down to the simulation
// counters (dropping the engine's own fanout_* metrics, which have no
// sequential counterpart).
func simSnapshot(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for name, v := range reg.Snapshot() {
		if strings.HasPrefix(name, "sim_") {
			out[name] = v
		}
	}
	return out
}

func TestShardedTelemetryExactness(t *testing.T) {
	tr := diffTrace(t, "grr")
	cfg := hierarchy.Config{}

	seqReg := telemetry.NewRegistry()
	seq, err := hierarchy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq.AttachTelemetry(seqReg)
	if err := seq.RunSourceContext(context.Background(), tr.Source()); err != nil {
		t.Fatal(err)
	}
	seq.FlushTelemetry()

	shReg := telemetry.NewRegistry()
	h, err := shardreplay.NewHierarchy(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Systems()) != 4 {
		t.Fatalf("systems = %d, want 4", len(h.Systems()))
	}
	h.AttachTelemetry(shReg)
	if err := h.Replay(context.Background(), tr.Source()); err != nil {
		t.Fatal(err)
	}

	want, got := simSnapshot(seqReg), simSnapshot(shReg)
	if len(want) == 0 {
		t.Fatal("sequential registry published no sim_ metrics")
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s: sharded registry %v, sequential %v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: sharded-only sim metric", name)
		}
	}
	// The fan-out engine's metrics must exist alongside.
	if shReg.Snapshot()["fanout_records_total"] != float64(tr.Len()) {
		t.Errorf("engine records_total = %v, want %d",
			shReg.Snapshot()["fanout_records_total"], tr.Len())
	}
}
