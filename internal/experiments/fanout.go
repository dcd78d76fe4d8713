package experiments

import (
	"jouppi/internal/cache"
	"jouppi/internal/classify"
	"jouppi/internal/core"
	"jouppi/internal/fanout"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
)

// This file is the experiments' one replay path. Every exhibit groups
// the configurations it compares on one benchmark trace (and one cache
// geometry) into fan-out consumers and drives them all from a single
// trace pass through replayGroup. Each consumer applies its configuration
// to the trace one access at a time in trace order, so every simulated
// number is bit-identical to replaying each configuration on its own —
// the golden figure suite and the equivalence tests pin this.

// pass collects the consumers of one trace pass, which a single
// replayGroup(cfg, src, p...) call then drives.
type pass []fanout.Consumer

// front adds a front-end fed one side's references.
func (p *pass) front(s side, fe core.FrontEnd) *frontRun {
	fr := &frontRun{fe: fe, s: s}
	*p = append(*p, fr)
	return fr
}

// baseline adds one side's classified direct-mapped baseline.
func (p *pass) baseline(s side, size, lineSize int) *classifiedRun {
	c := &classifiedRun{l1: cache.MustNew(l1Config(size, lineSize)),
		cl: classify.MustNew(size, lineSize), s: s}
	*p = append(*p, c)
	return c
}

// model adds a per-access model of one side that is neither a FrontEnd
// nor a full system: a bare cache or a classic prefetcher.
func (p *pass) model(s side, access func(addr uint64, write bool)) {
	*p = append(*p, fanout.Func(func(a memtrace.Access) {
		if s.keep(a) {
			access(uint64(a.Addr), a.Kind == memtrace.Store)
		}
	}))
}

// system adds a full two-level system fed the whole stream.
func (p *pass) system(sysCfg hierarchy.Config) *hierarchy.System {
	sys := hierarchy.MustNew(sysCfg)
	*p = append(*p, fanout.Sink(sys))
	return sys
}

// frontRun replays the side-filtered stream into one FrontEnd.
type frontRun struct {
	fe core.FrontEnd
	s  side
}

func (f *frontRun) Consume(chunk []memtrace.Access) {
	for _, a := range chunk {
		if f.s.keep(a) {
			f.fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
		}
	}
}

// baseCounts is a side's replay through a plain direct-mapped cache and
// its 3C classifier: accesses, total misses and the per-class counts.
type baseCounts struct {
	accesses uint64
	misses   uint64
	classes  classify.Counts
}

// classifiedRun replays the side-filtered stream into a plain L1 plus a
// 3C classifier: the baseline every figure compares against.
type classifiedRun struct {
	l1  *cache.Cache
	cl  *classify.Classifier
	s   side
	out baseCounts
}

func (c *classifiedRun) Consume(chunk []memtrace.Access) {
	for _, a := range chunk {
		if !c.s.keep(a) {
			continue
		}
		c.out.accesses++
		hit, _ := c.l1.Access(uint64(a.Addr), a.Kind == memtrace.Store)
		c.cl.ObserveMiss(uint64(a.Addr), !hit)
		if !hit {
			c.out.misses++
		}
	}
}

// counts returns the baseline's totals and miss classes.
func (c *classifiedRun) counts() baseCounts {
	c.out.classes = c.cl.Counts()
	return c.out
}

// tally counts the records delivered to one consumer.
type tally struct {
	fanout.Consumer
	n uint64
}

func (t *tally) Consume(chunk []memtrace.Access) {
	t.n += uint64(len(chunk))
	t.Consumer.Consume(chunk)
}

// replayGroup drives one trace pass through all consumers; it is the one
// place an exhibit replays a trace. The fan-out engine polls cfg's
// context between chunks; the cancellation error is dropped because
// RunAll discards partial results once the context is cancelled. The
// records delivered to each consumer are booked to cfg.Accesses, so the
// counter measures simulation work. A consumer panic re-panics (as
// *fanout.ConsumerPanic) and is relayed by parallelFor / runShielded
// like any other worker panic.
func replayGroup(cfg Config, src memtrace.Source, consumers ...fanout.Consumer) {
	tallies := make([]tally, len(consumers))
	counted := make([]fanout.Consumer, len(consumers))
	for i, c := range consumers {
		tallies[i].Consumer = c
		counted[i] = &tallies[i]
	}
	_ = fanout.Replay(cfg.context(), src, counted...)
	for _, t := range tallies {
		cfg.Accesses.Add(t.n)
	}
}

// runSystemsFanout replays one benchmark trace through every system
// configuration in a single pass and returns their results in order.
func runSystemsFanout(cfg Config, name string, sysCfgs []hierarchy.Config) []hierarchy.Results {
	tr := cfg.Traces.Get(name)
	var p pass
	systems := make([]*hierarchy.System, len(sysCfgs))
	for i, sc := range sysCfgs {
		systems[i] = p.system(sc)
	}
	replayGroup(cfg, tr.Source(), p...)
	out := make([]hierarchy.Results, len(systems))
	for i, sys := range systems {
		out[i] = sys.Results(tr.Instructions())
	}
	return out
}
