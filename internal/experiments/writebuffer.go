package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/textplot"
)

// AblationWriteBuffer is the dynamic counterpart of ablation-bandwidth:
// it actually runs the write-through data side through coalescing write
// buffers of several depths against a pipelined (4-cycle) and an
// unpipelined (16-cycle) second-level write port, and reports the store
// stall cycles per access. §2's claim — that an unpipelined L2 cannot
// absorb write-through store traffic — shows up as stalls no reasonable
// buffer depth can hide.
func AblationWriteBuffer() Experiment {
	return Experiment{
		ID:    "ablation-writebuffer",
		Title: "Ablation: write buffer depth vs L2 write-port speed",
		Run: func(cfg Config) *Result {
			cfg = cfg.withDefaults()
			names := benchNames()
			depths := []int{1, 2, 4, 8}
			intervals := []int{4, 16} // pipelined vs unpipelined L2 port

			// stallPerAccess[bench][intervalIdx][depthIdx]
			out := make([][][]float64, len(names))
			for i := range out {
				out[i] = make([][]float64, len(intervals))
				for j := range out[i] {
					out[i][j] = make([]float64, len(depths))
				}
			}
			cfg.parallelFor(len(names), func(i int) {
				var p pass
				base := p.front(dSide, core.NewBaseline(cache.MustNew(l1Config(4096, 16)),
					nil, core.DefaultTiming()))
				runs := make([][]*frontRun, len(intervals))
				for ii, interval := range intervals {
					for _, depth := range depths {
						inner := core.NewBaseline(cache.MustNew(l1Config(4096, 16)), nil, core.DefaultTiming())
						runs[ii] = append(runs[ii], p.front(dSide,
							core.NewWithWriteBuffer(inner, core.NewWriteBuffer(depth, interval))))
					}
				}
				replayGroup(cfg, cfg.Traces.Source(names[i]), p...)
				for ii := range intervals {
					for di, fr := range runs[ii] {
						// Isolate the buffer's contribution: stalls beyond
						// the plain front-end's.
						st := fr.fe.Stats()
						out[i][ii][di] = float64(st.StallCycles-base.fe.Stats().StallCycles) /
							float64(max(1, st.Accesses))
					}
				}
			})

			headers := []string{"program", "port"}
			for _, d := range depths {
				headers = append(headers, fmt.Sprintf("wb%d", d))
			}
			var rows [][]string
			for i, name := range names {
				for ii, interval := range intervals {
					kind := "pipelined(4)"
					if interval == 16 {
						kind = "unpipelined(16)"
					}
					row := []string{name, kind}
					for di := range depths {
						row = append(row, fmt.Sprintf("%.2f", out[i][ii][di]))
					}
					rows = append(rows, row)
				}
			}
			text := textplot.Table(headers, rows) +
				"\n(extra store-stall cycles per data access from the write buffer, on a\n" +
				" write-through 4KB data cache. Against a pipelined L2 write port a few\n" +
				" entries absorb the bursts; against an unpipelined port the §2 bandwidth\n" +
				" wall appears: stalls stay high regardless of depth for the store-heavy\n" +
				" benchmarks.)\n"
			return &Result{ID: "ablation-writebuffer",
				Title: "Write buffer depth vs L2 write-port speed",
				Text:  text, Headers: headers, Rows: rows}
		},
	}
}
