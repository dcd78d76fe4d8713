package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
)

// auxKind selects the small fully-associative structure under study.
type auxKind int

const (
	missCacheKind auxKind = iota
	victimCacheKind
)

func (k auxKind) String() string {
	if k == missCacheKind {
		return "miss cache"
	}
	return "victim cache"
}

func (k auxKind) build(l1 *cache.Cache, entries int) core.FrontEnd {
	if k == missCacheKind {
		return core.NewMissCache(l1, entries, nil, core.DefaultTiming())
	}
	return core.NewVictimCache(l1, entries, nil, core.DefaultTiming())
}

// conflictRemovalSweep runs the Figure 3-3/3-5 methodology: for each
// benchmark, side, and entry count, the percentage of the baseline's
// conflict misses removed by the structure. Benchmarks with almost no
// conflict misses on a side (liver/linpack instruction caches) are
// excluded from the cross-benchmark average, mirroring the paper's
// treatment of programs whose miss rates it reports as 0.000.
func conflictRemovalSweep(cfg Config, kind auxKind, entries []int, cacheSize, lineSize int) *Result {
	cfg = cfg.withDefaults()
	names := benchNames()

	// perBench[side][entryIdx][bench] is the percentage of conflict
	// misses removed; include[side][bench] marks the benchmarks with
	// enough conflicts to average.
	removed := make([][]float64, 2) // [side][entryIdx] average
	perBench := make([][][]float64, 2)
	include := make([][]bool, 2)
	for s := 0; s < 2; s++ {
		removed[s] = make([]float64, len(entries))
		perBench[s] = make([][]float64, len(entries))
		for e := range entries {
			perBench[s][e] = make([]float64, len(names))
		}
		include[s] = make([]bool, len(names))
	}

	cfg.parallelFor(len(names), func(b int) {
		var p pass
		var bases [2]*classifiedRun
		var runs [2][]*frontRun
		for s := side(0); s < 2; s++ {
			bases[s] = p.baseline(s, cacheSize, lineSize)
			for _, e := range entries {
				runs[s] = append(runs[s], p.front(s, kind.build(cache.MustNew(l1Config(cacheSize, lineSize)), e)))
			}
		}
		replayGroup(cfg, cfg.Traces.Source(names[b]), p...)
		for s, bc := range bases {
			base := bc.counts()
			include[s][b] = base.classes.Conflict >= minConflictsForAverage
			for e, fr := range runs[s] {
				removedMisses := float64(base.misses) - float64(fr.fe.Stats().FullMisses())
				// A large victim cache adds real capacity, so on benchmarks
				// with few conflict misses (liver) it can remove more misses
				// than the baseline had conflicts; clamp to 100% as the
				// figure's metric is a share of conflict misses.
				perBench[s][e][b] = min(100, stats.Percent(removedMisses, float64(base.classes.Conflict)))
			}
		}
	})

	// Cross-benchmark averages with the low-conflict exclusion.
	for s := 0; s < 2; s++ {
		for e := range entries {
			removed[s][e] = meanOver(perBench[s][e], include[s])
		}
	}

	xs := make([]float64, len(entries))
	for i, e := range entries {
		xs[i] = float64(e)
	}
	series := []textplot.Series{
		{Name: "L1 I-cache (avg)", X: xs, Y: removed[0]},
		{Name: "L1 D-cache (avg)", X: xs, Y: removed[1]},
	}

	id := "fig3-3"
	title := "Figure 3-3: Conflict misses removed by miss caching"
	if kind == victimCacheKind {
		id = "fig3-5"
		title = "Figure 3-5: Conflict misses removed by victim caching"
	}

	headers := []string{"program", "side"}
	for _, e := range entries {
		headers = append(headers, fmt.Sprintf("%d", e))
	}
	var rows [][]string
	for b, name := range names {
		for s := 0; s < 2; s++ {
			row := []string{name, map[int]string{0: "I", 1: "D"}[s]}
			for e := range entries {
				row = append(row, fmtPct(perBench[s][e][b]))
			}
			rows = append(rows, row)
		}
	}

	text := textplot.Lines(title+fmt.Sprintf(" (%dKB caches, %dB lines)", cacheSize/1024, lineSize),
		"entries", "% conflict misses removed", series, 60, 14) +
		"\nPer-benchmark percentage of conflict misses removed vs entries:\n" +
		textplot.Table(headers, rows)
	return &Result{ID: id, Title: title, Text: text, Series: series, Headers: headers, Rows: rows}
}

// Fig33 reproduces Figure 3-3: conflict misses removed by miss caching as
// the number of entries grows from 1 to 15.
func Fig33() Experiment {
	return Experiment{
		ID:    "fig3-3",
		Title: "Figure 3-3: Conflict misses removed by miss caching",
		Run: func(cfg Config) *Result {
			return conflictRemovalSweep(cfg, missCacheKind,
				[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 4096, 16)
		},
	}
}

// Fig35 reproduces Figure 3-5: conflict misses removed by victim caching.
func Fig35() Experiment {
	return Experiment{
		ID:    "fig3-5",
		Title: "Figure 3-5: Conflict misses removed by victim caching",
		Run: func(cfg Config) *Result {
			return conflictRemovalSweep(cfg, victimCacheKind,
				[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 4096, 16)
		},
	}
}
