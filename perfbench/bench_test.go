package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 50, false},
		{19, 50, false},
		{20, 50, true},
		{39, 70, true},
		{40, 75, true},
		{50, 80, true},
		{99, 85, true},
		{100, 90, true},
		{200, 95, true},
		{499, 97, true},
		{999, 98, true},
		{1000, 99, true},
		{2000, 99.5, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {20, 1}, {50, 3}, {80, 4}, {81, 5}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 2, 2},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
}

func TestSummarizeFallsBackToMedian(t *testing.T) {
	l := summarize([]float64{1, 2, 3})
	if !l.TailLow || l.Tail != l.P50 || l.P50 != 2 {
		t.Errorf("summarize of 3 samples = %+v", l)
	}
}

func TestSeedDeterminism(t *testing.T) {
	const scale = 0.002
	a := streamDigest(newInput(7).benchmark(), scale)
	b := streamDigest(newInput(7).benchmark(), scale)
	c := streamDigest(newInput(8).benchmark(), scale)
	if a != b {
		t.Errorf("seed 7 twice: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 give the same input %s", a)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "decode", Start: 0, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "consume", Start: 20 * ms, End: 60 * ms},
		{ID: 4, Parent: 1, Name: "consume", Start: 70 * ms, End: 90 * ms},
		{ID: 5, Parent: 3, Name: "inner", Start: 50 * ms, End: 80 * ms}, // runs past its parent
	}
	stats, wall, covered := selfTimes(spans, "pass")
	if wall != 100*ms || covered != 80*ms {
		t.Errorf("root wall %v covered %v, want 100ms and 80ms", wall, covered)
	}
	want := map[string]time.Duration{"pass": 20 * ms, "decode": 30 * ms, "consume": 50 * ms, "inner": 30 * ms}
	for _, s := range stats {
		if s.Self != want[s.Name] {
			t.Errorf("%s self %v, want %v", s.Name, s.Self, want[s.Name])
		}
	}
}

// declaredMetric is one metric as BENCHMARK.json declares it.
type declaredMetric struct {
	Name, Unit string
}

// declared reads BENCHMARK.json from the repository root.
func declared(t *testing.T) (workloads []string, endToEnd, perLayer []declaredMetric) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []declaredMetric `json:"end_to_end"`
		PerLayer  []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

func names(ms []declaredMetric) string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return strings.Join(out, ",")
}

// TestBenchmarkJSONNames keeps the names the program uses in step with
// the ones BENCHMARK.json declares.
func TestBenchmarkJSONNames(t *testing.T) {
	wl, e2e, pl := declared(t)
	if got, want := strings.Join(wl, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, program has %s", got, want)
	}
	if got, want := names(e2e), strings.Join(endToEndNames, ","); got != want {
		t.Errorf("end_to_end %s, program prints %s", got, want)
	}
	if got, want := names(pl), strings.Join(perLayerNames, ","); got != want {
		t.Errorf("per_layer %s, program prints %s", got, want)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// through the whole correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take tens of seconds")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				work := filepath.Join(t.TempDir(), "run")
				if err := os.Mkdir(work, 0o755); err != nil {
					t.Fatal(err)
				}
				e := &env{name: name, in: newInput(3), factor: 0.02, work: work, traced: traced,
					seconds: 100 * time.Millisecond, out: io.Discard}
				res, err := execute(e, workloads[name])
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Errorf("gate: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
				}
				_, e2e, pl := declared(t)
				want := e2e
				if traced {
					want = pl
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v (present %v), declared unit %q", d.Name, m, ok, d.Unit)
					}
				}
			})
		}
	}
}

// TestGateCatchesAChangedNumber changes one simulated count of a pass
// and expects the pass-identity check to fail.
func TestGateCatchesAChangedNumber(t *testing.T) {
	w := &improvedGen{}
	e := &env{in: newInput(3), factor: 0.02, out: io.Discard}
	if err := w.prepare(e); err != nil {
		t.Fatal(err)
	}
	p, err := w.pass(e, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Counts that reach sim.Results, and counts that only the complete
	// statistics hold: the memory traffic a prefetcher causes and its
	// prefetches used.
	for what, change := range map[string]func(q *passOut){
		"victim hits":       func(q *passOut) { q.full[0].D.VictimHits++ },
		"memory prefetches": func(q *passOut) { q.full[0].Mem.PrefetchFetches++ },
		"prefetches used":   func(q *passOut) { q.full[0].D.PrefetchUsed++ },
	} {
		q := p
		q.full = append(q.full[:0:0], p.full...)
		change(&q)
		if n, f := checkIdentical([]passOut{p, q}); n != 1 || len(f) != 1 {
			t.Errorf("changed %s: %d checks, failures %v", what, n, f)
		}
		if w.digest(q) == w.digest(p) {
			t.Errorf("changed %s: digest unchanged", what)
		}
	}
	if n, f := checkIdentical([]passOut{p, p}); n != 1 || len(f) != 0 {
		t.Errorf("identical passes: %d checks, failures %v", n, f)
	}
}

// TestPlanManyBlocks plans far more blocks than one run completes and
// checks that every upload is fresh and of the same length.
func TestPlanManyBlocks(t *testing.T) {
	e := &env{in: newInput(3), factor: 0.005, out: io.Discard}
	w := &jobsMixed{base: window(e.in.benchmark(), jobNamedScale, int(uploadLen*e.factor))}
	w.meas = planner{rnd: rand.New(rand.NewSource(e.in.Seed))}
	numbers := map[int]*jobSpec{}
	for b := 0; b < 300; b++ {
		rounds, err := w.plan(e, &w.meas)
		if err != nil {
			t.Fatal(err)
		}
		for _, rd := range rounds {
			for _, j := range rd {
				if j.spec.Named != "" {
					continue
				}
				if s, ok := numbers[j.spec.Upload]; ok && s != j.spec {
					t.Fatalf("block %d: upload %d minted twice", b, j.spec.Upload)
				}
				numbers[j.spec.Upload] = j.spec
				if n := len(w.uploadRecords(j.spec.Upload)); n != len(w.base)+1 {
					t.Fatalf("block %d: upload of %d records, want %d", b, n, len(w.base)+1)
				}
			}
		}
		freeRequests(rounds)
	}
	// Two uploads and one dedup-joined upload a block.
	if len(numbers) != 900 {
		t.Errorf("%d distinct uploads in 300 blocks, want 900", len(numbers))
	}
}
