package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"

	"jouppi/internal/core"
	"jouppi/internal/hierarchy"
	"jouppi/internal/jobqueue"
	"jouppi/internal/memtrace"
	"jouppi/internal/workload"
	"jouppi/sim"
)

// defaultSeed is the seed whose simulated statistics are pinned in
// pinned.json.
const defaultSeed = 1

// input is what a seed selects: the order of the six paper programs in a
// multiprogrammed mix and its context-switch quantum. The programs and
// the total work are the same for every seed; the quantum varies only
// within a narrow band so that throughput is comparable across seeds.
type input struct {
	Seed    int64
	Order   []string
	Quantum int
}

func newInput(seed int64) input {
	r := rand.New(rand.NewSource(seed))
	order := workload.Names()
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return input{Seed: seed, Order: order, Quantum: 4800 + 100*r.Intn(5)}
}

func (in input) benchmark() workload.Benchmark {
	bs := make([]workload.Benchmark, len(in.Order))
	for i, n := range in.Order {
		bs[i] = workload.MustByName(n)
	}
	return workload.Multiprogram(in.Quantum, bs...)
}

func (in input) String() string {
	return fmt.Sprintf("seed %d: %v, quantum %d instructions", in.Seed, in.Order, in.Quantum)
}

// streamDigest hashes every access b generates at scale (FNV-1a over
// 64-bit words) together with the access count: the identity of the
// input the program under test receives.
func streamDigest(b workload.Benchmark, scale float64) string {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	var n uint64
	b.Generate(scale, memtrace.SinkFunc(func(a memtrace.Access) {
		h = (h ^ uint64(a.Addr)) * prime
		h = (h ^ uint64(a.Kind)) * prime
		n++
	}))
	return fmt.Sprintf("%016x/%d", h, n)
}

// paperConfig is one system of the paper's sweeps, named by its spec in
// the cachesim/cachesimd configuration grammar. hier builds the same
// system at the hierarchy layer; the correctness gate checks the two
// agree on every run.
type paperConfig struct {
	Spec string
	I, D hierarchy.Augment
}

func stream(ways int) core.StreamConfig { return core.StreamConfig{Ways: ways, Depth: 4} }

var (
	cfgBaseline = paperConfig{Spec: "sys=baseline"}
	cfgImproved = paperConfig{Spec: "sys=improved",
		I: hierarchy.Augment{Kind: hierarchy.StreamBuffers, Stream: stream(1)},
		D: hierarchy.Augment{Kind: hierarchy.VictimAndStream, Entries: 4, Stream: stream(4)}}

	// sweepConfigs is the Fig 3-3/3-5/4-3 sweep shape: the baseline,
	// each augmentation alone at two sizes, and the §5 improved system.
	sweepConfigs = []paperConfig{
		cfgBaseline,
		{Spec: "misscache=2", D: hierarchy.Augment{Kind: hierarchy.MissCache, Entries: 2}},
		{Spec: "misscache=4", D: hierarchy.Augment{Kind: hierarchy.MissCache, Entries: 4}},
		{Spec: "victim=1", D: hierarchy.Augment{Kind: hierarchy.VictimCache, Entries: 1}},
		{Spec: "victim=4", D: hierarchy.Augment{Kind: hierarchy.VictimCache, Entries: 4}},
		{Spec: "ways=1,depth=4", D: hierarchy.Augment{Kind: hierarchy.StreamBuffers, Stream: stream(1)}},
		{Spec: "ways=4,depth=4", D: hierarchy.Augment{Kind: hierarchy.StreamBuffers, Stream: stream(4)}},
		cfgImproved,
	}
)

func (c paperConfig) hier() hierarchy.Config {
	hc := hierarchy.DefaultConfig()
	hc.IAugment, hc.DAugment = c.I, c.D
	return hc
}

// sim parses the spec with the same parser cachesimd uses.
func (c paperConfig) sim() (sim.Config, error) {
	cs, err := jobqueue.ParseConfigs(c.Spec)
	if err != nil {
		return sim.Config{}, err
	}
	return cs[0].Config, nil
}

func specList(cfgs []paperConfig) string {
	var b bytes.Buffer
	for i, c := range cfgs {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(c.Spec)
	}
	return b.String()
}

// simResults maps hierarchy results onto the public sim.Results, the
// canonical form every path's statistics are compared and digested in.
func simResults(r hierarchy.Results) sim.Results {
	side := func(s core.Stats) sim.SideResults {
		return sim.SideResults{
			Accesses: s.Accesses, Misses: s.L1Misses, FullMisses: s.FullMisses(),
			AuxHits: s.AuxHits, VictimHits: s.VictimHits, MissCacheHits: s.MissCacheHits,
			StreamHits: s.StreamHits, MissRate: s.MissRate(),
		}
	}
	return sim.Results{
		Instructions:       r.Instructions,
		I:                  side(r.I),
		D:                  side(r.D),
		L2DemandAccesses:   r.L2I.DemandAccesses + r.L2D.DemandAccesses,
		L2DemandMisses:     r.L2I.DemandMisses + r.L2D.DemandMisses,
		L2PrefetchAccesses: r.L2I.PrefetchAccesses + r.L2D.PrefetchAccesses,
		TotalTime:          r.Breakdown.Total(),
		PercentOfPotential: r.Breakdown.PercentOfPotential(),
	}
}

// writeTrace generates b at scale into a trace file of the given format
// ("jtr" or "din") and returns the record count.
func writeTrace(b workload.Benchmark, scale float64, path, format string) (uint64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var n uint64
	switch format {
	case "jtr":
		sw, err := memtrace.NewStreamWriter(f)
		if err != nil {
			return 0, err
		}
		b.Generate(scale, sw)
		if err := sw.Close(); err != nil {
			return 0, err
		}
		n = sw.Count()
	case "din":
		dw := memtrace.NewDineroWriter(f)
		b.Generate(scale, dw)
		if err := dw.Close(); err != nil {
			return 0, err
		}
		n = dw.Count()
	default:
		return 0, fmt.Errorf("unknown trace format %q", format)
	}
	return n, f.Close()
}

// traceReader is an open trace file positioned at its first record.
type traceReader struct {
	f   *os.File
	src memtrace.ChunkSource
	err func() error
}

func openTrace(path, format string) (*traceReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if format == "din" {
		dr := memtrace.NewDineroReader(f)
		return &traceReader{f: f, src: dr, err: dr.Err}, nil
	}
	r, err := memtrace.NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &traceReader{f: f, src: r, err: r.Err}, nil
}

// close reports the decode error, if any, and closes the file.
func (t *traceReader) close() error {
	err := t.err()
	t.f.Close() // read-only
	return err
}

// window materializes the first n accesses b generates at scale: the
// buffered stream the layer ladder and the facade check replay.
func window(b workload.Benchmark, scale float64, n int) []memtrace.Access {
	src := workload.NewSource(b, scale)
	defer src.Close()
	out := make([]memtrace.Access, n)
	return out[:memtrace.FillChunk(src, out)]
}

// workingSet reports the distinct first- and second-level lines an
// access sequence touches, against the modelled caches' capacities.
func workingSet(w []memtrace.Access) string {
	def := hierarchy.DefaultConfig()
	il, dl, l2 := map[uint64]struct{}{}, map[uint64]struct{}{}, map[uint64]struct{}{}
	for _, a := range w {
		line := uint64(a.Addr) / uint64(def.L1I.LineSize)
		if a.Kind == memtrace.Ifetch {
			il[line] = struct{}{}
		} else {
			dl[line] = struct{}{}
		}
		l2[uint64(a.Addr)/uint64(def.L2.LineSize)] = struct{}{}
	}
	return fmt.Sprintf("first %d accesses touch %d I-lines (%.1fx L1I's %d), %d D-lines (%.1fx L1D's %d), %d L2 lines (%.2fx L2's %d)",
		len(w), len(il), float64(len(il))/float64(def.L1I.Lines()), def.L1I.Lines(),
		len(dl), float64(len(dl))/float64(def.L1D.Lines()), def.L1D.Lines(),
		len(l2), float64(len(l2))/float64(def.L2.Lines()), def.L2.Lines())
}
