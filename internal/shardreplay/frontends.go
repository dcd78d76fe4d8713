package shardreplay

import (
	"context"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
)

// FrontEnds is a sharded stand-alone first-level simulation (cachesim's
// shape): K replicas of one core.FrontEnd, each receiving exactly the
// accesses that touch its slice of the L1 sets. On the fallback path it
// holds one replica and replays sequentially.
type FrontEnds struct {
	dec  Decision
	part Partition
	eng  *Engine
	fes  []core.FrontEnd
}

// NewFrontEnds plans a sharded replay for the cache geometry cc and
// builds one front-end per effective shard with build (called once per
// replica; every call must construct an identically-configured fresh
// front-end over a fresh cache array). coupled lists fallback reasons
// for globally-coupled structure the geometry alone cannot reveal, as
// in PlanCache.
func NewFrontEnds(cc cache.Config, requested int, build func() (core.FrontEnd, error), coupled ...string) (*FrontEnds, error) {
	dec := PlanCache(cc, requested, coupled...)
	f := &FrontEnds{dec: dec, eng: New(Config{})}
	f.fes = make([]core.FrontEnd, dec.Shards)
	for i := range f.fes {
		fe, err := build()
		if err != nil {
			return nil, err
		}
		f.fes[i] = fe
	}
	if dec.Sharded() {
		f.part = dec.Partition()
	}
	return f, nil
}

// Decision returns the plan the replica set was built from.
func (f *FrontEnds) Decision() Decision { return f.dec }

// AttachTelemetry attaches the fan-out engine's metrics to reg (the
// replicas' own stats are single-owner structs; callers publish them
// after the replay, when the shard goroutines are done). A nil registry
// detaches. Attach before the replay starts.
func (f *FrontEnds) AttachTelemetry(reg *telemetry.Registry) { f.eng.AttachTelemetry(reg) }

// FrontEnds exposes the per-shard replicas (index = shard).
func (f *FrontEnds) FrontEnds() []core.FrontEnd { return f.fes }

// feSink adapts a core.FrontEnd to the memtrace.Sink the engine feeds.
type feSink struct{ fe core.FrontEnd }

func (s feSink) Access(a memtrace.Access) {
	s.fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
}

// Replay pulls src dry through the replica set — sharded, or inline on
// the caller's goroutine when the plan fell back to one shard.
func (f *FrontEnds) Replay(ctx context.Context, src memtrace.Source) error {
	sinks := make([]memtrace.Sink, len(f.fes))
	for i, fe := range f.fes {
		sinks[i] = feSink{fe}
	}
	return f.eng.Replay(ctx, src, f.part, sinks)
}

// Stats merges the per-shard counters; every field is a plain event
// count over a disjoint sub-stream, so the sums equal the sequential
// replay's stats exactly.
func (f *FrontEnds) Stats() core.Stats {
	var out core.Stats
	for _, fe := range f.fes {
		out.Add(fe.Stats())
	}
	return out
}
