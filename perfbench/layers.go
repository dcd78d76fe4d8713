package main

import (
	"bytes"
	"fmt"
	"time"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/hierarchy"
	"jouppi/internal/introspect"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
)

// ladderReps is how many times each rung is timed, and overheadPairs
// how many paired ratios the observability overheads are medians of.
const (
	ladderReps    = 7
	overheadPairs = 21
)

// commonLayers measures the layers every workload's input goes through,
// from outside the program:
//
//   - workload: the seeded mix generated into a counting sink;
//   - memtrace: the buffered window decoded from in-memory JTR1 and
//     dinero encodings;
//   - the ladder: the window replayed through bare cache.Cache.Access,
//     then core front-ends with a counting no-op fetcher, then
//     hierarchy.System.Access. Adjacent rungs differ by one layer: the
//     front-end logic and aux structures, then the L2 path;
//   - telemetry and introspection: the top rung again with each attached.
func commonLayers(e *env, m metrics, cfgs []paperConfig, win []memtrace.Access, scale float64) error {
	if len(win) == 0 {
		return fmt.Errorf("empty window")
	}
	b := e.in.benchmark()
	var gen []float64
	for i := 0; i < 3; i++ {
		var c memtrace.Counts
		t0 := time.Now()
		b.Generate(scale, memtrace.SinkFunc(c.Observe))
		gen = append(gen, float64(time.Since(t0).Nanoseconds())/float64(c.Total()))
	}
	m.set("workload.gen_ns_per_acc", median(gen), "ns")

	jtr, din, err := encode(win)
	if err != nil {
		return err
	}
	for _, f := range []struct{ name, format string }{
		{"memtrace.jtr1_ns_per_rec", "jtr"}, {"memtrace.din_ns_per_rec", "din"},
	} {
		data := jtr
		if f.format == "din" {
			data = din
		}
		var ns []float64
		for i := 0; i < ladderReps; i++ {
			d, n, err := decodeAll(data, f.format)
			if err != nil {
				return err
			}
			if n != len(win) {
				return fmt.Errorf("%s decode: %d records, want %d", f.format, n, len(win))
			}
			ns = append(ns, float64(d.Nanoseconds())/float64(n))
		}
		m.set(f.name, median(ns), "ns")
	}

	var l1, fe, full []float64
	var fetches uint64
	for rep := 0; rep < ladderReps; rep++ {
		var t [3]time.Duration
		fetches = 0
		for _, c := range cfgs {
			hc := c.hier()
			t[0] += rungCache(hc, win)
			d, f := rungFrontEnds(hc, win)
			t[1] += d
			fetches += f
			d, err := rungHierarchy(hc, win, nil)
			if err != nil {
				return err
			}
			t[2] += d
		}
		l1, fe, full = append(l1, t[0].Seconds()), append(fe, t[1].Seconds()), append(full, t[2].Seconds())
	}

	// The top rung of the workload's last (richest) configuration plain,
	// with telemetry and with introspection, back to back in rotating
	// order: the overheads are medians of these paired ratios, so slow
	// stretches of the host cancel.
	attach := []func(*hierarchy.System){
		nil,
		func(s *hierarchy.System) { s.AttachTelemetry(telemetry.NewRegistry()) },
		func(s *hierarchy.System) { introspect.Attach(s, introspect.Options{Heatmap: true, MissEvery: 64}) },
	}
	hc := cfgs[len(cfgs)-1].hier()
	var tel, intro []float64
	for rep := 0; rep < overheadPairs; rep++ {
		var top [3]time.Duration
		for k := range attach {
			i := (k + rep) % len(attach)
			d, err := rungHierarchy(hc, win, attach[i])
			if err != nil {
				return err
			}
			top[i] = d
		}
		tel = append(tel, top[1].Seconds()/top[0].Seconds())
		intro = append(intro, top[2].Seconds()/top[0].Seconds())
	}
	acc := float64(len(win) * len(cfgs))
	m.set("cache.l1_ns_per_acc", median(l1)*1e9/acc, "ns")
	m.set("core.frontend_ns_per_acc", (median(fe)-median(l1))*1e9/acc, "ns")
	m.set("hierarchy.ns_per_acc", median(full)*1e9/acc, "ns")
	m.set("hierarchy.l2_path_ns_per_fetch", (median(full)-median(fe))*1e9/float64(max(fetches, 1)), "ns")
	m.set("telemetry.overhead_frac", median(tel)-1, "ratio")
	m.set("introspect.overhead_frac", median(intro)-1, "ratio")
	fmt.Fprintf(e.out, "ladder over %d accesses × %d configs (median of %d): cache %.1f ms, front-ends %.1f ms, hierarchy %.1f ms, %d L2 fetches\n",
		len(win), len(cfgs), ladderReps, median(l1)*1e3, median(fe)*1e3, median(full)*1e3, fetches)
	return nil
}

// rungCache replays w through the bare first-level arrays.
func rungCache(hc hierarchy.Config, w []memtrace.Access) time.Duration {
	l1i, l1d := cache.MustNew(hc.L1I), cache.MustNew(hc.L1D)
	t0 := time.Now()
	for _, a := range w {
		switch a.Kind {
		case memtrace.Ifetch:
			l1i.Access(uint64(a.Addr), false)
		case memtrace.Load:
			l1d.Access(uint64(a.Addr), false)
		case memtrace.Store:
			l1d.Access(uint64(a.Addr), true)
		}
	}
	return time.Since(t0)
}

// rungFrontEnds replays w through the configuration's first-level
// front-ends with a fetcher that only counts, and returns the time and
// the next-level fetches (demand and prefetch) it saw.
func rungFrontEnds(hc hierarchy.Config, w []memtrace.Access) (time.Duration, uint64) {
	var fetches uint64
	count := func(uint64, bool) { fetches++ }
	ife := frontEnd(cache.MustNew(hc.L1I), hc.IAugment, count, hc.Timing)
	dfe := frontEnd(cache.MustNew(hc.L1D), hc.DAugment, count, hc.Timing)
	t0 := time.Now()
	for _, a := range w {
		switch a.Kind {
		case memtrace.Ifetch:
			ife.Access(uint64(a.Addr), false)
		case memtrace.Load:
			dfe.Access(uint64(a.Addr), false)
		case memtrace.Store:
			dfe.Access(uint64(a.Addr), true)
		}
	}
	return time.Since(t0), fetches
}

// frontEnd builds the core front-end an augmentation names, as the
// hierarchy does.
func frontEnd(l1 *cache.Cache, aug hierarchy.Augment, fetch core.Fetcher, t core.Timing) core.FrontEnd {
	switch aug.Kind {
	case hierarchy.MissCache:
		return core.NewMissCache(l1, aug.Entries, fetch, t)
	case hierarchy.VictimCache:
		return core.NewVictimCache(l1, aug.Entries, fetch, t)
	case hierarchy.StreamBuffers:
		return core.NewStreamBuffer(l1, aug.Stream, fetch, t)
	case hierarchy.VictimAndStream:
		return core.NewCombined(l1, aug.Entries, aug.Stream, fetch, t)
	}
	return core.NewBaseline(l1, fetch, t)
}

// rungHierarchy replays w through a whole system, with attach (when
// non-nil) applied first.
func rungHierarchy(hc hierarchy.Config, w []memtrace.Access, attach func(*hierarchy.System)) (time.Duration, error) {
	sys, err := hierarchy.New(hc)
	if err != nil {
		return 0, err
	}
	if attach != nil {
		attach(sys)
	}
	t0 := time.Now()
	for _, a := range w {
		sys.Access(a)
	}
	sys.FlushTelemetry()
	return time.Since(t0), nil
}

// encode renders w in both trace formats, in memory.
func encode(w []memtrace.Access) (jtr, din []byte, err error) {
	t := memtrace.NewTrace(len(w))
	for _, a := range w {
		t.Append(a)
	}
	var jb, db bytes.Buffer
	if _, err := t.WriteTo(&jb); err != nil {
		return nil, nil, err
	}
	if _, err := t.WriteDinero(&db); err != nil {
		return nil, nil, err
	}
	return jb.Bytes(), db.Bytes(), nil
}

// decodeAll decodes data into a reused chunk buffer and returns the time
// and record count.
func decodeAll(data []byte, format string) (time.Duration, int, error) {
	buf := make([]memtrace.Access, 4096)
	t0 := time.Now()
	var src memtrace.ChunkSource
	var errFn func() error
	if format == "din" {
		dr := memtrace.NewDineroReader(bytes.NewReader(data))
		src, errFn = dr, dr.Err
	} else {
		r, err := memtrace.NewReader(bytes.NewReader(data))
		if err != nil {
			return 0, 0, err
		}
		src, errFn = r, r.Err
	}
	n := 0
	for {
		k := src.NextChunk(buf)
		if k == 0 {
			break
		}
		n += k
	}
	return time.Since(t0), n, errFn()
}

// countMetrics derives the per-layer counts from results already in
// hand, summed over configurations.
func countMetrics(m metrics, rs []hierarchy.Results) {
	var i, d core.Stats
	var l2 hierarchy.L2Stats
	var mem hierarchy.MemStats
	for _, r := range rs {
		i.Add(r.I)
		d.Add(r.D)
		l2.Add(r.L2I)
		l2.Add(r.L2D)
		mem.Add(r.Mem)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m.set("cache.l1i_miss_rate", ratio(i.L1Misses, i.Accesses), "ratio")
	m.set("cache.l1d_miss_rate", ratio(d.L1Misses, d.Accesses), "ratio")
	m.set("cache.l2_miss_rate", ratio(l2.DemandMisses, l2.DemandAccesses), "ratio")
	m.set("cache.writebacks", float64(i.Writebacks+d.Writebacks), "count")
	m.set("core.victim_hits", float64(i.VictimHits+d.VictimHits), "count")
	m.set("core.miss_cache_hits", float64(i.MissCacheHits+d.MissCacheHits), "count")
	m.set("core.stream_hits", float64(i.StreamHits+d.StreamHits), "count")
	m.set("core.aux_hit_frac", ratio(i.AuxHits+d.AuxHits, i.L1Misses+d.L1Misses), "ratio")
	m.set("core.prefetch_accuracy", ratio(i.PrefetchUsed+d.PrefetchUsed, i.PrefetchIssued+d.PrefetchIssued), "ratio")
	fetches := l2.DemandAccesses + l2.PrefetchAccesses
	m.set("hierarchy.l2_fetches", float64(fetches), "count")
	m.set("hierarchy.l2_prefetch_frac", ratio(l2.PrefetchAccesses, fetches), "ratio")
	m.set("hierarchy.mem_fetches", float64(mem.DemandFetches+mem.PrefetchFetches), "count")
}
