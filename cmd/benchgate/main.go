// Command benchgate enforces the telemetry performance budget in CI. It
// compares a freshly measured benchmark artifact (the JSON written by
// TestWriteBenchTelemetryJSON) against the baseline committed in the
// repository and exits non-zero when:
//
//   - the telemetry-on overhead of either replay arm (in-memory or
//     file-backed) exceeds -max-overhead percent, or
//   - the introspection-on overhead of the in-memory replay (phase
//     windows + heatmaps + sampled miss trace, no 3C classifier)
//     exceeds -max-introspect-overhead percent, or
//   - the trace-attached fan-out replay (a root span carried through the
//     context, spans at replay/consumer granularity) runs more than
//     -max-trace-overhead percent slower than the detached path, or
//   - allocations per op on the file-backed replay regress beyond
//     -alloc-slack times the committed baseline — the zero-alloc decode
//     path must stay O(1) allocations per replay, not per line, or
//   - the sharded-replay scaling artifact (-shard-baseline, the JSON
//     written by TestWriteBenchShardJSON) shows an 8-shard speedup below
//     -min-shard-speedup on a host with at least 8 cores. Hosts with
//     fewer cores cannot demonstrate parallel scaling, so there the gate
//     degrades to -min-shard-sanity, a routing-overhead ceiling only.
//
// Run it via `make bench-gate`, which generates the fresh measurement
// first. With no -measured flag it gates the baseline artifact against
// itself, which still catches a committed artifact that violates the
// overhead budget outright.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

type entry struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
	MAccPerSec  float64 `json:"macc_per_sec"`
}

type fileReplay struct {
	Format    string  `json:"format"`
	Records   int     `json:"records"`
	Off       entry   `json:"telemetry_off"`
	On        entry   `json:"telemetry_on"`
	OverheadP float64 `json:"overhead_percent"`
}

type report struct {
	Benchmark  string     `json:"benchmark"`
	Workload   string     `json:"workload"`
	Off        entry      `json:"telemetry_off"`
	On         entry      `json:"telemetry_on"`
	OverheadP  float64    `json:"overhead_percent"`
	Intro      entry      `json:"introspect_on"`
	IntroOverP float64    `json:"introspect_overhead_percent"`
	TraceOverP float64    `json:"trace_overhead_percent"`
	File       fileReplay `json:"file_replay"`
}

// shardReport mirrors the artifact TestWriteBenchShardJSON writes: the
// shard-count scaling curve plus the measuring host's core count. The
// speedup floor is only meaningful when the host actually has the cores
// the shards are supposed to occupy, so the gate arms itself on the
// recorded core count rather than pretending a single-core container
// can demonstrate parallel scaling.
type shardPoint struct {
	Shards     int     `json:"shards"`
	NsPerOp    int64   `json:"ns_per_op"`
	MAccPerSec float64 `json:"macc_per_sec"`
	N          int     `json:"n"`
}

type shardReport struct {
	Benchmark  string       `json:"benchmark"`
	Workload   string       `json:"workload"`
	Cores      int          `json:"cores"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Points     []shardPoint `json:"points"`
	SpeedupAt8 float64      `json:"speedup_at_8"`
}

func loadShard(path string) (shardReport, error) {
	var r shardReport
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Points) == 0 || r.Points[0].NsPerOp <= 0 || r.SpeedupAt8 <= 0 {
		return r, fmt.Errorf("%s: missing or zero shard measurements", path)
	}
	return r, nil
}

func load(path string) (report, error) {
	var r report
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Off.NsPerOp <= 0 || r.File.Off.NsPerOp <= 0 {
		return r, fmt.Errorf("%s: missing or zero measurements", path)
	}
	return r, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run gates the artifacts named by args and returns the exit code: 0
// when every gate passes, 1 when one fails, 2 on a usage error or an
// unreadable, missing or zero artifact.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_telemetry.json",
		"committed baseline artifact")
	measuredPath := fs.String("measured", "",
		"freshly measured artifact (defaults to gating the baseline against itself)")
	maxOverhead := fs.Float64("max-overhead", 10,
		"maximum telemetry-on overhead in percent, per replay arm")
	maxIntrospect := fs.Float64("max-introspect-overhead", 5,
		"maximum introspection-on overhead in percent on the in-memory replay")
	maxTrace := fs.Float64("max-trace-overhead", 5,
		"maximum trace-attached overhead in percent on the fan-out replay")
	allocSlack := fs.Float64("alloc-slack", 1.5,
		"allowed multiple of baseline allocs/op on the file-backed replay")
	shardPath := fs.String("shard-baseline", "",
		"shard scaling artifact (BENCH_shard.json); empty skips the shard gate")
	shardMeasuredPath := fs.String("shard-measured", "",
		"freshly measured shard artifact (defaults to gating the shard baseline)")
	minShardSpeedup := fs.Float64("min-shard-speedup", 3,
		"required 8-shard speedup over 1 shard, enforced only when the artifact's host has >= 8 cores")
	minShardSanity := fs.Float64("min-shard-sanity", 0.4,
		"required 8-shard speedup on hosts with fewer than 8 cores (a routing-overhead ceiling, not a scaling claim)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	measured := baseline
	if *measuredPath != "" {
		measured, err = load(*measuredPath)
		if err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 2
		}
	}

	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	if measured.OverheadP > *maxOverhead {
		fail("in-memory replay: telemetry-on overhead %.1f%% exceeds budget %.1f%% (off %d ns/op, on %d ns/op)",
			measured.OverheadP, *maxOverhead, measured.Off.NsPerOp, measured.On.NsPerOp)
	}
	if measured.File.OverheadP > *maxOverhead {
		fail("file-backed replay: telemetry-on overhead %.1f%% exceeds budget %.1f%% (off %d ns/op, on %d ns/op)",
			measured.File.OverheadP, *maxOverhead, measured.File.Off.NsPerOp, measured.File.On.NsPerOp)
	}
	// The introspection arm is gated only when the artifact carries it, so
	// pre-introspection baselines keep loading.
	if measured.Intro.NsPerOp > 0 && measured.IntroOverP > *maxIntrospect {
		fail("in-memory replay: introspection-on overhead %.1f%% exceeds budget %.1f%% (off %d ns/op, introspected %d ns/op)",
			measured.IntroOverP, *maxIntrospect, measured.Off.NsPerOp, measured.Intro.NsPerOp)
	}
	// Pre-tracing baselines carry no trace column (unmarshals to 0) and
	// pass trivially, so old artifacts keep loading.
	if measured.TraceOverP > *maxTrace {
		fail("fan-out replay: trace-attached overhead %.1f%% exceeds budget %.1f%%",
			measured.TraceOverP, *maxTrace)
	}
	// Alloc regression: the decode path is zero-alloc per record, so
	// allocs/op on a file-backed replay is a small fixed count. A growth
	// beyond slack means someone reintroduced per-line allocation.
	checkAllocs := func(arm string, base, got entry) {
		if base.AllocsPerOp <= 0 {
			return
		}
		limit := int64(float64(base.AllocsPerOp) * *allocSlack)
		if got.AllocsPerOp > limit {
			fail("file-backed replay (%s): %d allocs/op exceeds %d (baseline %d × slack %.2f)",
				arm, got.AllocsPerOp, limit, base.AllocsPerOp, *allocSlack)
		}
	}
	checkAllocs("telemetry off", baseline.File.Off, measured.File.Off)
	checkAllocs("telemetry on", baseline.File.On, measured.File.On)

	// Shard scaling gate. The artifact records the measuring host's core
	// count: with >= 8 cores the 8-shard speedup floor applies in full;
	// below that, parallel speedup is physically unavailable, so the gate
	// degrades to a sanity floor that only catches the sharding machinery
	// becoming pathologically expensive.
	shardNote := ""
	if *shardPath != "" {
		sb, err := loadShard(*shardPath)
		if err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 2
		}
		sm := sb
		if *shardMeasuredPath != "" {
			sm, err = loadShard(*shardMeasuredPath)
			if err != nil {
				fmt.Fprintln(stderr, "benchgate:", err)
				return 2
			}
		}
		if sm.Cores >= 8 {
			if sm.SpeedupAt8 < *minShardSpeedup {
				fail("sharded replay: 8-shard speedup %.2fx below floor %.2fx on a %d-core host",
					sm.SpeedupAt8, *minShardSpeedup, sm.Cores)
			}
			shardNote = fmt.Sprintf("; shard speedup at 8 %.2fx (floor %.2fx, %d cores)",
				sm.SpeedupAt8, *minShardSpeedup, sm.Cores)
		} else {
			if sm.SpeedupAt8 < *minShardSanity {
				fail("sharded replay: 8-shard throughput ratio %.2fx below sanity floor %.2fx — routing overhead regressed (host has only %d cores, full %.2fx floor disarmed)",
					sm.SpeedupAt8, *minShardSanity, sm.Cores, *minShardSpeedup)
			}
			shardNote = fmt.Sprintf("; shard ratio at 8 %.2fx on %d-core host (full %.2fx floor needs >= 8 cores)",
				sm.SpeedupAt8, sm.Cores, *minShardSpeedup)
		}
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stderr, "benchgate: FAIL:", f)
		}
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: ok — in-memory overhead %.1f%%, introspection overhead %.1f%% (budget %.1f%%), "+
		"trace overhead %.1f%% (budget %.1f%%), file-backed overhead %.1f%% (budget %.1f%%); "+
		"file-backed allocs/op off=%d on=%d (baseline %d/%d, slack %.2f)%s\n",
		measured.OverheadP, measured.IntroOverP, *maxIntrospect,
		measured.TraceOverP, *maxTrace,
		measured.File.OverheadP, *maxOverhead,
		measured.File.Off.AllocsPerOp, measured.File.On.AllocsPerOp,
		baseline.File.Off.AllocsPerOp, baseline.File.On.AllocsPerOp, *allocSlack, shardNote)
	return 0
}
