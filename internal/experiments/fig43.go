package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
)

// streamRunSweep implements Figures 4-3 and 4-5: cumulative percentage of
// misses removed by a stream buffer as a function of how many lines it
// may prefetch past the allocating miss ("length of stream run"). Unlike
// the §3 figures, the denominator here is all baseline misses, not just
// conflicts.
func streamRunSweep(cfg Config, id, title string, ways int) *Result {
	cfg = cfg.withDefaults()
	names := benchNames()
	runs := []int{0, 1, 2, 4, 6, 8, 10, 12, 16}

	perBench := make([][][]float64, 2) // [side][runIdx][bench]
	baseMisses := make([][]uint64, 2)  // [side][bench]
	for s := 0; s < 2; s++ {
		perBench[s] = make([][]float64, len(runs))
		for r := range runs {
			perBench[s][r] = make([]float64, len(names))
		}
		baseMisses[s] = make([]uint64, len(names))
	}
	// Run length 0 is no prefetching at all: the baseline itself.
	cfg.parallelFor(len(names), func(b int) {
		var p pass
		var bases [2]*classifiedRun
		var bufs [2][]*frontRun
		for s := side(0); s < 2; s++ {
			bases[s] = p.baseline(s, 4096, 16)
			bufs[s] = make([]*frontRun, len(runs))
			for r, runLimit := range runs {
				if runLimit > 0 {
					bufs[s][r] = p.front(s, core.NewStreamBuffer(cache.MustNew(l1Config(4096, 16)),
						core.StreamConfig{Ways: ways, Depth: 4, RunLimit: runLimit},
						nil, core.DefaultTiming()))
				}
			}
		}
		replayGroup(cfg, cfg.Traces.Source(names[b]), p...)
		for s, bc := range bases {
			base := bc.counts().misses
			baseMisses[s][b] = base
			for r, fr := range bufs[s] {
				misses := base
				if fr != nil {
					misses = fr.fe.Stats().FullMisses()
				}
				perBench[s][r][b] = stats.PercentReduction(float64(base), float64(misses))
			}
		}
	})

	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = float64(r)
	}
	avg := func(s int) []float64 {
		ys := make([]float64, len(runs))
		include := make([]bool, len(names))
		for b := range names {
			include[b] = baseMisses[s][b] >= minConflictsForAverage
		}
		for r := range runs {
			ys[r] = meanOver(perBench[s][r], include)
		}
		return ys
	}
	series := []textplot.Series{
		{Name: "L1 I-cache (avg)", X: xs, Y: avg(0)},
		{Name: "L1 D-cache (avg)", X: xs, Y: avg(1)},
	}

	headers := []string{"program", "side"}
	for _, r := range runs {
		headers = append(headers, fmt.Sprint(r))
	}
	var rows [][]string
	for b, name := range names {
		for s := 0; s < 2; s++ {
			row := []string{name, map[int]string{0: "I", 1: "D"}[s]}
			for r := range runs {
				row = append(row, fmtPct(perBench[s][r][b]))
			}
			rows = append(rows, row)
		}
	}
	text := textplot.Lines(title, "length of stream run (lines prefetched past miss)",
		"% misses removed (cumulative)", series, 60, 14) +
		"\nPer-benchmark percentage of misses removed vs run length:\n" +
		textplot.Table(headers, rows)
	return &Result{ID: id, Title: title, Text: text, Series: series, Headers: headers, Rows: rows}
}

// Fig43 reproduces Figure 4-3: sequential (single) stream buffer
// performance, 4KB caches with 16B lines.
func Fig43() Experiment {
	return Experiment{
		ID:    "fig4-3",
		Title: "Figure 4-3: Sequential stream buffer performance",
		Run: func(cfg Config) *Result {
			return streamRunSweep(cfg, "fig4-3",
				"Figure 4-3: Single 4-entry stream buffer: misses removed vs stream run length", 1)
		},
	}
}

// Fig45 reproduces Figure 4-5: four-way stream buffer performance.
func Fig45() Experiment {
	return Experiment{
		ID:    "fig4-5",
		Title: "Figure 4-5: Four-way stream buffer performance",
		Run: func(cfg Config) *Result {
			return streamRunSweep(cfg, "fig4-5",
				"Figure 4-5: Four-way 4-entry stream buffers: misses removed vs stream run length", 4)
		},
	}
}
