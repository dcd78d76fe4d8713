package shardreplay

import (
	"context"

	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
)

// Hierarchy is a sharded two-level system: K independent
// hierarchy.System replicas, each a fan-out consumer keeping exactly the
// accesses that touch its slice of the sets.
// When the configuration cannot shard (Decision.Fallback) it degrades
// to one replica replayed sequentially — same numbers, one core.
type Hierarchy struct {
	cfg     hierarchy.Config
	dec     Decision
	part    Partition
	eng     *Engine
	systems []*hierarchy.System
}

// NewHierarchy plans and builds a sharded system for cfg. shards is the
// requested parallelism; the effective count (and any fallback reason)
// is in Decision.
func NewHierarchy(cfg hierarchy.Config, shards int) (*Hierarchy, error) {
	dec := PlanHierarchy(cfg, shards)
	h := &Hierarchy{cfg: cfg, dec: dec, eng: New(Config{})}
	h.systems = make([]*hierarchy.System, dec.Shards)
	for i := range h.systems {
		sys, err := hierarchy.New(cfg)
		if err != nil {
			return nil, err
		}
		h.systems[i] = sys
	}
	if dec.Sharded() {
		h.part = dec.Partition()
	}
	return h, nil
}

// Decision returns the plan the hierarchy was built from.
func (h *Hierarchy) Decision() Decision { return h.dec }

// Shards returns the effective shard count (1 on the fallback path).
func (h *Hierarchy) Shards() int { return len(h.systems) }

// Systems exposes the per-shard systems, e.g. to attach an
// introspection probe per shard. Each shard needs its own probe — the
// hierarchy's observer taps write single-owner state from the shard's
// goroutine, so sharing one observer across shards is a data race.
// Per-set artifacts (heatmaps) merge across shards by element-wise sum,
// since every set belongs to exactly one shard; per-shard phase windows
// cover only that shard's sub-stream.
func (h *Hierarchy) Systems() []*hierarchy.System { return h.systems }

// AttachTelemetry attaches every shard system and the fan-out engine to
// reg. Registry counters are name-idempotent, so the K shard systems
// share one counter set; each publishes its own deltas under the
// delta-publication discipline (per-system snapshots, atomic adds), and
// the shared counters converge to exactly the sequential totals. A nil
// registry detaches. Attach before the replay starts.
func (h *Hierarchy) AttachTelemetry(reg *telemetry.Registry) {
	for _, s := range h.systems {
		s.AttachTelemetry(reg)
	}
	h.eng.AttachTelemetry(reg)
}

// Replay pulls src dry through the sharded system (or through the one
// replica, inline, on the fallback path). It returns ctx's error on
// cancellation and re-panics a *fanout.ConsumerPanic if a shard dies.
func (h *Hierarchy) Replay(ctx context.Context, src memtrace.Source) error {
	return h.eng.ReplayHierarchies(ctx, src, h)
}

// Results merges the per-shard counters into the results of the
// equivalent sequential replay (see hierarchy.MergeResults for why the
// merge is exact). instructions is the whole trace's dynamic
// instruction count.
func (h *Hierarchy) Results(instructions uint64) hierarchy.Results {
	if !h.dec.Sharded() {
		return h.systems[0].Results(instructions)
	}
	return hierarchy.MergeResults(h.cfg, instructions, h.ShardResults()...)
}

// ShardResults returns each shard's own counters (with a zero
// instruction count — instructions are a whole-trace quantity). The
// metamorphic tests pin that these sum exactly to Results.
func (h *Hierarchy) ShardResults() []hierarchy.Results {
	out := make([]hierarchy.Results, len(h.systems))
	for i, s := range h.systems {
		out[i] = s.Results(0)
	}
	return out
}
