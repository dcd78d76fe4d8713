// Command perfbench is the repository's benchmark: one process that runs
// one named workload for a fixed time, checks every simulated number it
// produces, and prints every metric by name with its unit. The last line
// of standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing, telemetry and introspection off. With -trace 1 they are the
// per-layer ones, measured from outside the program by spans around
// calls into each layer and by a ladder of replays over one buffered
// stream. See README.md in this directory for the workloads, metrics and
// how they relate.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload improved-gen --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/sim"
)

// metric is one named measurement with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload of one run shares.
type env struct {
	name    string
	in      input
	factor  float64 // input-size multiplier: always 1 from the command line; tests set less
	work    string  // scratch directory inside the checkout, removed at exit
	traced  bool
	seconds time.Duration
	out     io.Writer
}

// passOut is one pass of a workload: everything it simulated and what it
// cost. A pass builds fresh systems, so simulated caches start empty.
type passOut struct {
	setup   time.Duration // pass start to the first simulated access
	records uint64        // trace records replayed
	simAcc  uint64        // records × configurations simulated
	results []sim.Results // one per configuration, canonical form
	// full holds every configuration's complete statistics, prefetch,
	// write-back and memory traffic included, where the pass has them.
	full []hierarchy.Results
	jobs []time.Duration

	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

// workloadBench is one of the four workloads.
type workloadBench interface {
	// prepare builds the run's inputs; it is not timed as a pass.
	prepare(e *env) error
	// pass runs the workload once; tr is nil in untraced passes and root
	// is the pass's span.
	pass(e *env, tr *tracer, root int) (passOut, error)
	// gate runs the correctness checks other than pass-to-pass identity
	// and returns how many it ran and the failures.
	gate(e *env, passes []passOut) (checks int, failures []string)
	// digest is the pinned identity of a pass's simulated statistics.
	digest(p passOut) string
	// layers measures the per-layer metrics of a traced run.
	layers(e *env, passes []passOut, m metrics) error
	// buffered returns the workload's buffered window: the first
	// windowLen accesses of its stream.
	buffered(e *env) []memtrace.Access
	// setupSamples returns set-up times measured outside passes (the
	// service bring-ups of jobs-mixed); nil when passes measure set-up.
	setupSamples() []time.Duration
	cleanup()
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

var workloads = map[string]func() workloadBench{
	"improved-gen":         func() workloadBench { return &improvedGen{} },
	"baseline-jtr-sharded": func() workloadBench { return &jtrSharded{} },
	"sweep-din-fanout":     func() workloadBench { return &sweepFanout{} },
	"jobs-mixed":           func() workloadBench { return &jobsMixed{} },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", defaultSeed, "input seed")
		secs    = fs.Float64("seconds", 10, "measured time")
		traceOn = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		root    = fs.String("root", ".", "checkout root; scratch files go under its .bench_build")
		pins    = fs.Bool("print-digests", false, "print the workload's canary and default-seed digests and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newBench, ok := workloads[*name]
	if !ok || *secs <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{name: *name, in: newInput(*seed), factor: 1, work: work,
		traced: *traceOn == 1, seconds: time.Duration(*secs * float64(time.Second)), out: stdout}

	if *pins {
		canary, full, err := pinnedDigests(e, newBench)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%q: {\"canary\": %q, \"default\": %q}\n", *name, canary, full)
		return 0
	}
	res, err := execute(e, newBench)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// canaryFactor shrinks the default seed's input for the canary pass that
// every run makes, whatever its seed, against the pinned digest.
const canaryFactor = 0.05

// onePassDigest prepares a fresh instance of the workload for in at the
// given size and returns the digest of its first pass.
func onePassDigest(e *env, newBench func() workloadBench, in input, factor float64) (string, error) {
	ce := *e
	ce.in, ce.factor, ce.traced = in, factor, false
	dir, err := os.MkdirTemp(e.work, "canary-")
	if err != nil {
		return "", err
	}
	ce.work = dir
	b := newBench()
	defer b.cleanup()
	if err := b.prepare(&ce); err != nil {
		return "", err
	}
	p, err := b.pass(&ce, nil, 0)
	if err != nil {
		return "", err
	}
	return b.digest(p), nil
}

func pinnedDigests(e *env, newBench func() workloadBench) (canary, full string, err error) {
	if canary, err = onePassDigest(e, newBench, newInput(defaultSeed), e.factor*canaryFactor); err != nil {
		return "", "", err
	}
	full, err = onePassDigest(e, newBench, newInput(defaultSeed), e.factor)
	return canary, full, err
}

// gate tallies the correctness checks of a run.
type gate struct {
	attempted, failed int
	out               io.Writer
}

func (g *gate) check(what string, ok bool, detail string) {
	g.attempted++
	if !ok {
		g.failed++
		fmt.Fprintf(g.out, "FAIL %s: %s\n", what, detail)
	}
}

func execute(e *env, newBench func() workloadBench) (*result, error) {
	cpus := runtime.NumCPU()
	fmt.Fprintf(e.out, "host: nproc %d, GOMAXPROCS %d, %s, cpu %q, work dir on %s\n",
		cpus, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), fsType(e.work))
	fmt.Fprintf(e.out, "workload %s, input %s, size factor %g\n", e.name, e.in, e.factor)
	fmt.Fprintln(e.out, "every pass builds fresh systems: simulated caches start empty")

	g := &gate{out: e.out}
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	pin := pins[e.name]
	phase := time.Now()
	lap := func(what string) {
		fmt.Fprintf(e.out, "phase %s: %.2fs\n", what, time.Since(phase).Seconds())
		phase = time.Now()
	}
	d, err := onePassDigest(e, newBench, newInput(defaultSeed), e.factor*canaryFactor)
	if err != nil {
		return nil, fmt.Errorf("canary pass: %w", err)
	}
	if e.factor == 1 {
		g.check("canary digest", d == pin.Canary, fmt.Sprintf("got %s, pinned %s", d, pin.Canary))
	}

	lap("canary")
	b := newBench()
	defer b.cleanup()
	if err := b.prepare(e); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	fmt.Fprintf(e.out, "working set: %s\n", workingSet(b.buffered(e)))
	lap("prepare")

	var (
		passes, tracedPasses []passOut
		tr                   *tracer
	)
	if e.traced {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", e.name, e.in.Seed, os.Getpid()))
	}
	minPasses := 3
	if e.traced {
		minPasses = 6
	}
	start := time.Now()
	for i := 0; time.Since(start) < e.seconds || i < minPasses; i++ {
		// A traced run alternates traced and untraced passes, so the
		// tracing overhead is measured under the same host conditions.
		var ptr *tracer
		if e.traced && i%2 == 1 {
			ptr = tr
		}
		id, _ := ptr.open("pass", 0)
		p, err := b.pass(e, ptr, id)
		ptr.close(id)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if ptr != nil {
			tracedPasses = append(tracedPasses, p)
		} else {
			passes = append(passes, p)
		}
	}
	rss := maxRSS()
	lap("measure")

	all := append(append([]passOut(nil), passes...), tracedPasses...)
	if e.in.Seed == defaultSeed && e.factor == 1 {
		d := b.digest(all[0])
		g.check("default-seed digest", d == pin.Default, fmt.Sprintf("got %s, pinned %s", d, pin.Default))
	}
	checks, failures := b.gate(e, all)
	g.attempted += checks
	g.failed += len(failures)
	for _, f := range failures {
		fmt.Fprintf(e.out, "FAIL %s\n", f)
	}
	lap("gate")

	m := metrics{}
	jobs := 0
	var jobLat []float64
	for _, p := range all {
		jobs += len(p.jobs)
		jobLat = append(jobLat, seconds(p.jobs)...)
	}
	lat := summarize(jobLat)
	fmt.Fprintf(e.out, "passes: %d untraced, %d traced; first pass replayed %d records, %d simulated accesses\n",
		len(passes), len(tracedPasses), all[0].records, all[0].simAcc)
	fmt.Fprintf(e.out, "jobs: %d, latency %s\n", jobs, lat)
	g.attempted += jobs

	if !e.traced {
		var tput, cpu, alloc, setup, rate []float64
		for _, p := range passes {
			rate = append(rate, float64(len(p.jobs))/p.wall.Seconds())
			tput = append(tput, float64(p.simAcc)/p.wall.Seconds()/1e6)
			cpu = append(cpu, float64(p.cpu.Nanoseconds())/float64(p.simAcc))
			alloc = append(alloc, float64(p.alloc)/float64(p.simAcc))
			setup = append(setup, p.setup.Seconds())
		}
		if s := b.setupSamples(); s != nil {
			setup = seconds(s)
		}
		fmt.Fprintf(e.out, "set-up (s): p10 %.6f, p50 %.6f, p90 %.6f over %d samples\n",
			percentile(setup, 10), percentile(setup, 50), percentile(setup, 90), len(setup))
		fmt.Fprintf(e.out, "pass throughput (Macc/s): p10 %.3f, p25 %.3f, p50 %.3f, p75 %.3f, p90 %.3f over %d passes\n",
			percentile(tput, 10), percentile(tput, 25), percentile(tput, 50), percentile(tput, 75),
			percentile(tput, 90), len(tput))
		m.set("throughput_macc_s", median(tput), "Macc/s")
		m.set("cpu_ns_per_acc", median(cpu), "ns")
		m.set("setup_s", median(setup), "s")
		m.set("alloc_bytes_per_acc", median(alloc), "B")
		m.set("max_rss_mb", rss, "MB")
		m.set("job_p50_s", lat.P50, "s")
		m.set("job_tail_s", lat.Tail, "s")
		m.set("jobs_per_s", median(rate), "1/s")
	} else {
		covered := printSelfTimes(e.out, tr.spans, "pass")
		// One file per workload, replaced by each traced run: each span
		// carries its run's ID, and the directory stays bounded.
		path := filepath.Join(filepath.Dir(e.work), "spans-"+e.name+".jsonl")
		if err := tr.writeJSONL(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(e.out, "spans written to %s\n", path)
		m.set("bench.top_level_coverage", covered, "ratio")
		var plain, traced []float64
		for _, p := range passes {
			plain = append(plain, p.wall.Seconds())
		}
		for _, p := range tracedPasses {
			traced = append(traced, p.wall.Seconds())
		}
		m.set("bench.trace_overhead_frac", median(traced)/median(plain)-1, "ratio")
		if err := b.layers(e, all, m); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		lap("layers")
		for _, name := range perLayerNames {
			if _, ok := m[name]; !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", name)
			}
		}
	}
	fmt.Fprintf(e.out, "fail_frac %d/%d = %g\n", g.failed, g.attempted, float64(g.failed)/float64(g.attempted))
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(e.out, "  %-36s %16.6f %s\n", n, m[n].Value, m[n].Unit)
	}
	return &result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: m}, nil
}

// endToEndNames is every end-to-end metric an untraced run prints.
var endToEndNames = []string{
	"throughput_macc_s", "cpu_ns_per_acc", "setup_s", "alloc_bytes_per_acc", "max_rss_mb",
	"job_p50_s", "job_tail_s", "jobs_per_s",
}

// perLayerNames is every per-layer metric a traced run prints; a metric
// that does not apply to a workload is printed as 0 and marked n/a.
var perLayerNames = []string{
	"workload.gen_ns_per_acc",
	"memtrace.jtr1_ns_per_rec", "memtrace.din_ns_per_rec",
	"shardreplay.producer_busy_s", "shardreplay.shard_imbalance", "shardreplay.speedup_vs_seq",
	"fanout.producer_busy_s", "fanout.consumer_wait_s", "fanout.chunks", "fanout.max_lag",
	"cache.l1_ns_per_acc", "cache.l1i_miss_rate", "cache.l1d_miss_rate", "cache.l2_miss_rate", "cache.writebacks",
	"core.frontend_ns_per_acc", "core.victim_hits", "core.miss_cache_hits", "core.stream_hits",
	"core.aux_hit_frac", "core.prefetch_accuracy",
	"hierarchy.ns_per_acc", "hierarchy.l2_path_ns_per_fetch", "hierarchy.l2_fetches",
	"hierarchy.l2_prefetch_frac", "hierarchy.mem_fetches",
	"jobqueue.queue_wait_p50_s", "jobqueue.attempt_p50_s", "jobqueue.store_get_s", "jobqueue.store_put_s",
	"jobqueue.store_hit_frac", "jobqueue.dedup_joins", "jobqueue.refused",
	"telemetry.overhead_frac", "introspect.overhead_frac",
	"bench.trace_overhead_frac", "bench.top_level_coverage",
}

// notApplicable records the metrics that do not apply to a workload.
func notApplicable(e *env, m metrics, names ...string) {
	for _, n := range names {
		m.set(n, 0, unitOf(n))
		fmt.Fprintf(e.out, "n/a on %s: %s\n", e.name, n)
	}
}

// unitOf is the unit of a metric printed as not applicable.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "imbalance"),
		strings.HasSuffix(name, "speedup_vs_seq"):
		return "ratio"
	}
	return "count"
}

// meter measures the wall-clock, CPU time and allocation of a pass.
type meter struct {
	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), cpu0: cpuTime(), alloc0: ms.TotalAlloc}
}

func (m meter) stop(p *passOut) {
	p.wall = time.Since(m.t0)
	p.cpu = cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - m.alloc0
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS is the process's peak resident set in MB.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, where the job store and the
// trace files live.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("fs 0x%x", st.Type)
}
