package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"jouppi/internal/fanout"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/shardreplay"
	"jouppi/sim"
)

// Input sizes at size factor 1. Each pass replays millions of records,
// so fixed costs do not dominate, and lasts 0.2–0.6 s on a 2-core host.
// The sharded workload gets the longest passes: its pass times vary most
// with the host's share of the two CPUs, and with fewer, longer passes
// its job tail is read nearer the median.
const (
	improvedScale = 0.24 // ≈3.8M generated accesses
	jtrScale      = 1.0  // ≈15.6M JTR1 records, ≈125 MB
	sweepScale    = 0.07 // ≈1.2M dinero records × 8 configurations
	windowLen     = 1 << 19
)

// markSource wraps a trace source: it notes when the first chunk is
// delivered, after which the first simulated access follows at once, and
// in traced passes records a span around every chunk decode.
type markSource struct {
	src    memtrace.ChunkSource
	tr     *tracer
	parent int
	first  time.Time
	chunks atomic.Int64
}

// Next serves per-record readers; the replay engines pull chunks.
func (s *markSource) Next() (memtrace.Access, bool) { return s.src.Next() }

func (s *markSource) NextChunk(dst []memtrace.Access) int {
	t0 := s.tr.now()
	n := s.src.NextChunk(dst)
	s.tr.record("decode", s.parent, t0)
	if s.first.IsZero() {
		s.first = time.Now()
	}
	s.chunks.Add(1)
	return n
}

// hierReplay replays w through a fresh system built from cfg.
func hierReplay(cfg hierarchy.Config, w []memtrace.Access) (hierarchy.Results, error) {
	sys, err := hierarchy.New(cfg)
	if err != nil {
		return hierarchy.Results{}, err
	}
	var c memtrace.Counts
	for _, a := range w {
		c.Observe(a)
		sys.Access(a)
	}
	return sys.Results(c.Instructions()), nil
}

// facadeReplay replays w through the public sim.System built from cfg.
func facadeReplay(cfg sim.Config, w []memtrace.Access) (sim.Results, error) {
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		return sim.Results{}, err
	}
	for _, a := range w {
		switch a.Kind {
		case memtrace.Ifetch:
			sys.Ifetch(uint64(a.Addr))
		case memtrace.Load:
			sys.Load(uint64(a.Addr))
		case memtrace.Store:
			sys.Store(uint64(a.Addr))
		}
	}
	return sys.Results(), nil
}

// checkFacade checks that each paper configuration, built through the
// public facade from its spec, simulates the buffered window exactly as
// the hierarchy-level configuration the benchmark replays.
func checkFacade(cfgs []paperConfig, w []memtrace.Access) (checks int, failures []string) {
	for _, c := range cfgs {
		checks++
		sc, err := c.sim()
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", c.Spec, err))
			continue
		}
		want, err := facadeReplay(sc, w)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", c.Spec, err))
			continue
		}
		got, err := hierReplay(c.hier(), w)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", c.Spec, err))
			continue
		}
		if simResults(got) != want {
			failures = append(failures, fmt.Sprintf("%s: hierarchy config differs from the sim facade", c.Spec))
		}
	}
	return checks, failures
}

// checkIdentical checks that every pass simulated exactly what the first
// one did.
func checkIdentical(passes []passOut) (checks int, failures []string) {
	for i, p := range passes[1:] {
		checks++
		if passDigest(p) != passDigest(passes[0]) {
			failures = append(failures, fmt.Sprintf("pass %d results differ from pass 0", i+1))
		}
	}
	return checks, failures
}

// passDigest is the identity of a pass's statistics: the complete
// hierarchy statistics where the pass has them, else the sim.Results.
func passDigest(p passOut) string {
	if p.full != nil {
		return digest(p.full)
	}
	return digest(p.results)
}

// improvedGen feeds the multiprogrammed generator straight into the §5
// improved system, one configuration, sequentially.
type improvedGen struct {
	scale float64
}

func (w *improvedGen) prepare(e *env) error {
	w.scale = improvedScale * e.factor
	return nil
}

func (w *improvedGen) pass(e *env, tr *tracer, root int) (passOut, error) {
	var p passOut
	m := startMeter()
	sys, err := hierarchy.New(cfgImproved.hier())
	if err != nil {
		return p, err
	}
	// The generator pushes straight into the system, as sim.RunBenchmark
	// does; collecting its output in chunks lets a traced pass time
	// generation and simulation apart.
	buf := make([]memtrace.Access, 0, 4096)
	var counts memtrace.Counts
	genStart := tr.now()
	simulate := func() {
		tr.record("generate", root, genStart)
		if p.setup == 0 {
			p.setup = time.Since(m.t0)
		}
		t0 := tr.now()
		for _, a := range buf {
			counts.Observe(a)
			sys.Access(a)
		}
		tr.record("simulate", root, t0)
		buf = buf[:0]
		genStart = tr.now()
	}
	e.in.benchmark().Generate(w.scale, memtrace.SinkFunc(func(a memtrace.Access) {
		buf = append(buf, a)
		if len(buf) == cap(buf) {
			simulate()
		}
	}))
	simulate()
	hr := sys.Results(counts.Instructions())
	m.stop(&p)
	p.records = counts.Total()
	p.simAcc = p.records
	p.results = []sim.Results{simResults(hr)}
	p.full = []hierarchy.Results{hr}
	p.jobs = []time.Duration{p.wall}
	return p, nil
}

func (w *improvedGen) gate(e *env, passes []passOut) (int, []string) {
	n, f := checkIdentical(passes)
	// "sys=improved" parses to sim.ImprovedSystem().
	n2, f2 := checkFacade([]paperConfig{cfgImproved}, w.buffered(e))
	return n + n2, append(f, f2...)
}

func (w *improvedGen) digest(p passOut) string { return passDigest(p) }

func (w *improvedGen) layers(e *env, passes []passOut, m metrics) error {
	if err := commonLayers(e, m, []paperConfig{cfgImproved}, w.buffered(e), w.scale); err != nil {
		return err
	}
	countMetrics(m, passes[0].full)
	notApplicable(e, m, "shardreplay.producer_busy_s", "shardreplay.shard_imbalance", "shardreplay.speedup_vs_seq",
		"fanout.producer_busy_s", "fanout.consumer_wait_s", "fanout.chunks", "fanout.max_lag")
	notApplicable(e, m, jobqueueMetrics...)
	return nil
}

func (w *improvedGen) buffered(e *env) []memtrace.Access {
	return window(e.in.benchmark(), w.scale, windowLen)
}

func (w *improvedGen) setupSamples() []time.Duration { return nil }
func (w *improvedGen) cleanup()                      {}

// jtrSharded replays a JTR1 file through the paper's baseline on two
// set-partitioned shards.
type jtrSharded struct {
	scale float64
	path  string
	ref   hierarchy.Results // the sequential oracle's results
	info  sim.ShardInfo

	// sharded is one replay of the file through the shardreplay layer
	// under sim.ShardedSystem, which, unlike the facade, gives the merged
	// statistics in full and per shard. Made once, on first use.
	sharded *shardreplay.Hierarchy
	full    hierarchy.Results
}

func (w *jtrSharded) prepare(e *env) error {
	w.scale = jtrScale * e.factor
	w.path = filepath.Join(e.work, "input.jtr")
	_, err := writeTrace(e.in.benchmark(), w.scale, w.path, "jtr")
	return err
}

func (w *jtrSharded) pass(e *env, tr *tracer, root int) (passOut, error) {
	var p passOut
	m := startMeter()
	ssys, err := sim.NewShardedSystem(sim.BaselineSystem(), 2)
	if err != nil {
		return p, err
	}
	w.info = ssys.Info()
	in, err := openTrace(w.path, "jtr")
	if err != nil {
		return p, err
	}
	rid, _ := tr.open("ReplaySource", root)
	ms := &markSource{src: in.src, tr: tr, parent: rid}
	err = ssys.ReplaySource(context.Background(), ms)
	tr.close(rid)
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return p, err
	}
	res := ssys.Results()
	m.stop(&p)
	p.setup = ms.first.Sub(m.t0)
	p.records = res.I.Accesses + res.D.Accesses
	p.simAcc = p.records
	p.results = []sim.Results{res}
	p.jobs = []time.Duration{p.wall}
	return p, nil
}

// shardedFull replays the file once through a two-shard
// shardreplay.Hierarchy and keeps its complete statistics.
func (w *jtrSharded) shardedFull() (hierarchy.Results, error) {
	if w.sharded != nil {
		return w.full, nil
	}
	h, err := shardreplay.NewHierarchy(cfgBaseline.hier(), 2)
	if err != nil {
		return hierarchy.Results{}, err
	}
	in, err := openTrace(w.path, "jtr")
	if err != nil {
		return hierarchy.Results{}, err
	}
	cs := memtrace.NewCountingSource(in.src)
	err = h.Replay(context.Background(), cs)
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return hierarchy.Results{}, err
	}
	w.sharded, w.full = h, h.Results(cs.Instructions())
	return w.full, nil
}

// seqReplay is the oracle: the same file through one sequential
// hierarchy, timed.
func (w *jtrSharded) seqReplay() (hierarchy.Results, time.Duration, error) {
	t0 := time.Now()
	sys, err := hierarchy.New(cfgBaseline.hier())
	if err != nil {
		return hierarchy.Results{}, 0, err
	}
	in, err := openTrace(w.path, "jtr")
	if err != nil {
		return hierarchy.Results{}, 0, err
	}
	cs := memtrace.NewCountingSource(in.src)
	sys.RunSource(cs)
	if err := in.close(); err != nil {
		return hierarchy.Results{}, 0, err
	}
	r := sys.Results(cs.Instructions())
	return r, time.Since(t0), nil
}

func (w *jtrSharded) gate(e *env, passes []passOut) (int, []string) {
	n, f := checkIdentical(passes)
	fmt.Fprintf(e.out, "sharding: requested %d, ran on %d shards %s\n", w.info.Requested, w.info.Shards, w.info.Fallback)
	ref, _, err := w.seqReplay()
	if err != nil {
		return n + 1, append(f, fmt.Sprintf("sequential replay: %v", err))
	}
	w.ref = ref
	// The passes, through the facade, against the oracle; then the
	// complete statistics of the sharded layer against the oracle's.
	n += 2
	if simResults(ref) != passes[0].results[0] {
		f = append(f, "sharded results differ from a sequential hierarchy replay of the same file")
	}
	full, err := w.shardedFull()
	switch {
	case err != nil:
		f = append(f, fmt.Sprintf("sharded replay: %v", err))
	case digest(full) != digest(ref):
		f = append(f, "sharded statistics differ from a sequential hierarchy replay's in full")
	}
	return n, f
}

// digest pins the complete statistics of the file's sharded replay,
// after checking that the pass agrees with them; the facade the passes
// replay through reports only sim.Results.
func (w *jtrSharded) digest(p passOut) string {
	full, err := w.shardedFull()
	if err != nil {
		return "sharded replay: " + err.Error()
	}
	if simResults(full) != p.results[0] {
		return "pass differs from the sharded layer's replay"
	}
	return digest(full)
}

func (w *jtrSharded) layers(e *env, passes []passOut, m metrics) error {
	if err := commonLayers(e, m, []paperConfig{cfgBaseline}, w.buffered(e), w.scale); err != nil {
		return err
	}
	countMetrics(m, []hierarchy.Results{w.ref})

	// Sequential against sharded replays of the whole file, alternated
	// so both see the same host conditions; the ratio of medians is
	// reported as measured, below 1 included.
	var seq, shard []float64
	for i := 0; i < 5; i++ {
		_, d, err := w.seqReplay()
		if err != nil {
			return err
		}
		p, err := w.pass(e, nil, 0)
		if err != nil {
			return err
		}
		seq, shard = append(seq, d.Seconds()), append(shard, p.wall.Seconds())
	}
	m.set("shardreplay.speedup_vs_seq", median(seq)/median(shard), "ratio")
	fmt.Fprintf(e.out, "sequential %.3fs, sharded %.3fs (medians of %d alternated replays of %d records)\n",
		median(seq), median(shard), len(seq), passes[0].records)

	// The producer alone: decode and routing into shards that do nothing
	// but count, so the producer is the bottleneck and its busy time is
	// the replay's wall-clock.
	hc := cfgBaseline.hier()
	dec := shardreplay.PlanHierarchy(hc, 2)
	var busy []float64
	for i := 0; i < 5; i++ {
		in, err := openTrace(w.path, "jtr")
		if err != nil {
			return err
		}
		sinks := make([]memtrace.Sink, dec.Shards)
		for j := range sinks {
			sinks[j] = memtrace.SinkFunc(func(memtrace.Access) {})
		}
		t0 := time.Now()
		var err2 error
		if dec.Sharded() {
			err2 = shardreplay.New(shardreplay.Config{}).Replay(context.Background(), in.src, dec.Partition(), sinks)
		} else {
			memtrace.Drain(in.src, sinks[0])
		}
		busy = append(busy, time.Since(t0).Seconds())
		if err := in.close(); err != nil || err2 != nil {
			return fmt.Errorf("producer replay: %v %v", err, err2)
		}
	}
	m.set("shardreplay.producer_busy_s", median(busy), "s")

	// Shard balance from the per-shard counters of the sharded replay.
	if _, err := w.shardedFull(); err != nil {
		return err
	}
	var most, total float64
	parts := w.sharded.ShardResults()
	for _, r := range parts {
		n := float64(r.I.Accesses + r.D.Accesses)
		total += n
		most = max(most, n)
	}
	m.set("shardreplay.shard_imbalance", most/(total/float64(len(parts))), "ratio")
	notApplicable(e, m, "fanout.producer_busy_s", "fanout.consumer_wait_s", "fanout.chunks", "fanout.max_lag")
	notApplicable(e, m, jobqueueMetrics...)
	return nil
}

func (w *jtrSharded) buffered(e *env) []memtrace.Access {
	return window(e.in.benchmark(), w.scale, windowLen)
}

func (w *jtrSharded) setupSamples() []time.Duration { return nil }
func (w *jtrSharded) cleanup()                      { os.Remove(w.path) }

// sweepFanout decodes a dinero text file once and fans it out to the
// eight sweep configurations.
type sweepFanout struct {
	scale float64
	path  string

	// Traced passes only: per-consumer time inside Consume, chunks and
	// the deepest lag behind the producer, and the replay's wall-clock.
	wait   []float64
	chunks int64
	lag    int64
}

func (w *sweepFanout) prepare(e *env) error {
	w.scale = sweepScale * e.factor
	w.path = filepath.Join(e.work, "input.din")
	_, err := writeTrace(e.in.benchmark(), w.scale, w.path, "din")
	return err
}

// tracedConsumer times each chunk a consumer handles and its lag behind
// the producer, in chunks.
type tracedConsumer struct {
	c        fanout.Consumer
	tr       *tracer
	parent   int
	produced *atomic.Int64
	busy     time.Duration
	chunks   int64
	maxLag   int64
}

func (t *tracedConsumer) Consume(chunk []memtrace.Access) {
	t0 := time.Now()
	t.c.Consume(chunk)
	t.tr.record("consume", t.parent, t0)
	t.busy += time.Since(t0)
	t.chunks++
	if lag := t.produced.Load() - t.chunks; lag > t.maxLag {
		t.maxLag = lag
	}
}

func (w *sweepFanout) pass(e *env, tr *tracer, root int) (passOut, error) {
	var p passOut
	m := startMeter()
	systems := make([]*hierarchy.System, len(sweepConfigs))
	consumers := make([]fanout.Consumer, len(sweepConfigs))
	for i, c := range sweepConfigs {
		sys, err := hierarchy.New(c.hier())
		if err != nil {
			return p, err
		}
		systems[i], consumers[i] = sys, fanout.Sink(sys)
	}
	in, err := openTrace(w.path, "din")
	if err != nil {
		return p, err
	}
	rid, _ := tr.open("fanout.Replay", root)
	ms := &markSource{src: in.src, tr: tr, parent: rid}
	var traced []*tracedConsumer
	if tr != nil {
		for i, c := range consumers {
			tc := &tracedConsumer{c: c, tr: tr, parent: rid, produced: &ms.chunks}
			traced, consumers[i] = append(traced, tc), tc
		}
	}
	counting := memtrace.NewCountingSource(ms)
	t0 := time.Now()
	err = fanout.New(fanout.Config{}).Replay(context.Background(), counting, consumers...)
	replay := time.Since(t0)
	tr.close(rid)
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return p, err
	}
	hres := make([]hierarchy.Results, len(systems))
	for i, sys := range systems {
		hres[i] = sys.Results(counting.Instructions())
		p.results = append(p.results, simResults(hres[i]))
	}
	p.full = hres
	m.stop(&p)
	p.setup = ms.first.Sub(m.t0)
	p.records = counting.Total()
	p.simAcc = p.records * uint64(len(systems))
	p.jobs = []time.Duration{p.wall}
	for _, tc := range traced {
		w.wait = append(w.wait, (replay - tc.busy).Seconds())
		w.chunks = tc.chunks
		w.lag = max(w.lag, tc.maxLag)
	}
	return p, nil
}

func (w *sweepFanout) gate(e *env, passes []passOut) (int, []string) {
	n, f := checkIdentical(passes)
	// Each fan-out consumer against its own single replay of the file,
	// through the public facade with the configuration parsed from its
	// spec.
	for i, c := range sweepConfigs {
		n++
		sc, err := c.sim()
		if err != nil {
			f = append(f, fmt.Sprintf("%s: %v", c.Spec, err))
			continue
		}
		r, err := sim.ReplayTraceFile(w.path, "din", sc)
		if err != nil {
			f = append(f, fmt.Sprintf("%s: single replay: %v", c.Spec, err))
			continue
		}
		if r != passes[0].results[i] {
			f = append(f, fmt.Sprintf("%s: fan-out consumer differs from its own single replay", c.Spec))
		}
	}
	return n, f
}

func (w *sweepFanout) digest(p passOut) string { return passDigest(p) }

func (w *sweepFanout) layers(e *env, passes []passOut, m metrics) error {
	if err := commonLayers(e, m, sweepConfigs, w.buffered(e), w.scale); err != nil {
		return err
	}
	countMetrics(m, passes[0].full)
	m.set("fanout.consumer_wait_s", median(w.wait), "s")
	m.set("fanout.chunks", float64(w.chunks), "count")
	m.set("fanout.max_lag", float64(w.lag), "count")

	// The producer alone: decode and broadcast to consumers that do
	// nothing, so its busy time is the replay's wall-clock.
	var busy []float64
	for i := 0; i < 5; i++ {
		in, err := openTrace(w.path, "din")
		if err != nil {
			return err
		}
		idle := make([]fanout.Consumer, len(sweepConfigs))
		for j := range idle {
			idle[j] = fanout.Func(func(memtrace.Access) {})
		}
		t0 := time.Now()
		err = fanout.New(fanout.Config{}).Replay(context.Background(), in.src, idle...)
		busy = append(busy, time.Since(t0).Seconds())
		if cerr := in.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	m.set("fanout.producer_busy_s", median(busy), "s")
	notApplicable(e, m, "shardreplay.producer_busy_s", "shardreplay.shard_imbalance", "shardreplay.speedup_vs_seq")
	notApplicable(e, m, jobqueueMetrics...)
	return nil
}

func (w *sweepFanout) buffered(e *env) []memtrace.Access {
	return window(e.in.benchmark(), w.scale, windowLen)
}

func (w *sweepFanout) setupSamples() []time.Duration { return nil }
func (w *sweepFanout) cleanup()                      { os.Remove(w.path) }
