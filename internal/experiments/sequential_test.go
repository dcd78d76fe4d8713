package experiments

import (
	"jouppi/internal/cache"
	"jouppi/internal/classify"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
)

// The sequential reference: one configuration, one plain trace walk, no
// fan-out. The exhibits replay through replayGroup only; these helpers
// stay as the independent implementation the equivalence, paper-shape
// and race tests compare that path against.

// runFront replays one side of an access stream through the front-end
// built by mk and returns its stats. Cancellation of cfg's context stops
// the replay early; the partial stats only surface if the caller ignores
// the cancellation, which RunAll never does.
func runFront(cfg Config, src memtrace.Source, s side, mk func() core.FrontEnd) core.Stats {
	fe := mk()
	var replayed uint64
	_ = memtrace.EachContext(cfg.context(), src, func(a memtrace.Access) {
		if s.keep(a) {
			fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
			replayed++
		}
	})
	cfg.Accesses.Add(replayed)
	return fe.Stats()
}

// runBaselineClassified replays one side through a plain direct-mapped
// cache and its 3C classifier, returning total misses and the per-class
// counts.
func runBaselineClassified(cfg Config, src memtrace.Source, s side, size, lineSize int) baseCounts {
	l1 := cache.MustNew(l1Config(size, lineSize))
	cl := classify.MustNew(size, lineSize)
	var out baseCounts
	_ = memtrace.EachContext(cfg.context(), src, func(a memtrace.Access) {
		if !s.keep(a) {
			return
		}
		out.accesses++
		hit, _ := l1.Access(uint64(a.Addr), a.Kind == memtrace.Store)
		cl.ObserveMiss(uint64(a.Addr), !hit)
		if !hit {
			out.misses++
		}
	})
	out.classes = cl.Counts()
	cfg.Accesses.Add(out.accesses)
	return out
}
