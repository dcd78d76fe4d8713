package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"jouppi/internal/hierarchy"
	"jouppi/internal/jobqueue"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/version"
	"jouppi/internal/workload"
	"jouppi/sim"
)

// jobs-mixed sizes at size factor 1, and its traffic shape. No record
// of real cachesimd traffic exists, so the upload size, like the mix in
// plan, is an assumed stand-in.
const (
	jobNamedScale = 0.35  // one paper program: 0.4M–1.6M accesses
	uploadLen     = 65536 // records of the seeded mix's stream in an upload, 512 KB of JTR1
	setupReps     = 25    // service bring-ups per run; the median is setup_s
	storeEntries  = 128   // results the store holds before the bring-ups
	maxJobs       = 1024  // cachesimd's -max-jobs default
	warmScale     = 0.01  // the one named spec the warm-up repeats
)

// tailBase is where an upload's last record, the one that makes it
// distinct, loads from: far above every address the workloads use.
const tailBase = 1 << 40

var jobConfigs = []paperConfig{cfgBaseline, cfgImproved}

var jobqueueMetrics = []string{
	"jobqueue.queue_wait_p50_s", "jobqueue.attempt_p50_s", "jobqueue.store_get_s", "jobqueue.store_put_s",
	"jobqueue.store_hit_frac", "jobqueue.dedup_joins", "jobqueue.refused",
}

// service is an in-process cachesimd: a real result store, the queue
// and its HTTP API on a loopback listener, configured with cachesimd's
// defaults.
type service struct {
	queue *jobqueue.Queue
	api   *jobqueue.Server
	srv   *http.Server
	url   string
	done  chan error
}

// startService brings the service up and returns once /healthz answers.
func startService(dir string) (*service, error) {
	store, err := jobqueue.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	q := jobqueue.NewQueue(jobqueue.Options{
		Workers:       2,
		QueueDepth:    64,
		JobTimeout:    5 * time.Minute,
		JobDeadline:   15 * time.Minute,
		Retries:       1,
		Store:         store,
		Registry:      reg,
		MaxJobs:       maxJobs,
		Version:       version.String("cachesimd"),
		TraceCapacity: 256,
	})
	s := &service{queue: q, api: jobqueue.NewServer(q, reg), done: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		q.Drain(0)
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{
		Handler:           s.api,
		ReadHeaderTimeout: telemetry.DefaultReadHeaderTimeout,
		ReadTimeout:       telemetry.DefaultReadTimeout,
		IdleTimeout:       telemetry.DefaultIdleTimeout,
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	resp, err := http.Get(s.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the queue and shuts the listener down, as cachesimd does
// on SIGTERM, and waits for the server goroutine.
func (s *service) stop() {
	s.api.SetDraining()
	s.queue.Drain(30 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) // idle loopback connections only
	<-s.done
}

// jobSpec is one distinct job: a named paper program at a scale, or
// upload number Upload: the seeded mix's first uploadLen records and one
// load from an address of the upload's own.
// Every fresh spec differs from all earlier ones, so it misses the
// result store; the simulated work of fresh specs is alike.
type jobSpec struct {
	Named  string
	Scale  float64
	Upload int
	req    []byte
}

func (s *jobSpec) String() string {
	if s.Named != "" {
		return fmt.Sprintf("%s@%g", s.Named, s.Scale)
	}
	return fmt.Sprintf("upload-%d", s.Upload)
}

// jobRecord is one submission as the client saw it.
type jobRecord struct {
	spec     *jobSpec
	kind     string // fresh, repeat or dedup
	id       string
	code     int
	cacheHit bool
	joined   bool
	latency  time.Duration
	body     []byte // the ResultBody JSON
	err      string
}

// jobsMixed is a closed loop of two clients, one connection each,
// submitting a seeded mix to an in-process cachesimd with two workers.
// Clients move in lockstep rounds of one job each, so two clients can
// submit one spec at the same moment (a dedup join). A block of 11
// rounds holds 22 jobs in fixed shares, in seeded order: each paper
// program twice and 2 uploads, all fresh; one upload posted by both
// clients at once; and 6 repeats of a spec the same client completed
// earlier in the block (store hits, 27%). No record of real cachesimd
// traffic exists: these shares are an assumed stand-in, chosen so that
// the median job does not flip between kinds of job from run to run.
type jobsMixed struct {
	svc     *service
	setups  []time.Duration
	base    []memtrace.Access // the records every upload starts with
	meas    planner
	clients [2]*http.Client

	jobs      []jobRecord
	warmJobs  int      // warm-up submissions
	warmFails []string // warm-up jobs that did not end done
}

// planner mints specs and lays out blocks from a seeded source.
type planner struct {
	rnd   *rand.Rand
	fresh int // specs minted so far: upload numbers and scale steps
}

func (w *jobsMixed) prepare(e *env) error {
	w.meas = planner{rnd: rand.New(rand.NewSource(e.in.Seed))}
	w.base = window(e.in.benchmark(), jobNamedScale, int(uploadLen*e.factor))
	// Set-up is a restart: the service comes up over a store that
	// already holds results, which OpenStore validates one by one.
	dir := filepath.Join(e.work, "store")
	if err := populateStore(dir); err != nil {
		return err
	}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		svc, err := startService(dir)
		if err != nil {
			return err
		}
		w.setups = append(w.setups, time.Since(t0))
		if i < setupReps-1 {
			svc.stop()
		} else {
			w.svc = svc
		}
	}
	for i := range w.clients {
		w.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return w.warmUp(e)
}

// warmUp fills the queue's retention to maxJobs job records before the
// measured passes, so that max_rss_mb is read at the plateau a daemon
// that has run for a while holds, retained upload bytes included. It
// runs blocks of the workload's own plan, from a seed and spec numbers
// of its own, with every named job replaced by a store hit on one small
// named spec; the uploads, the records that retain the most, post and
// run as planned.
func (w *jobsMixed) warmUp(e *env) error {
	pl := &planner{rnd: rand.New(rand.NewSource(^e.in.Seed)), fresh: 1 << 30}
	named := &jobSpec{Named: workload.Names()[0], Scale: warmScale}
	var err error
	if named.req, err = json.Marshal(jobqueue.SubmitRequest{
		Benchmark: named.Named, Scale: named.Scale, Configs: specList(jobConfigs),
	}); err != nil {
		return err
	}
	for records := 0; records < maxJobs; {
		rounds, err := w.plan(e, pl)
		if err != nil {
			return err
		}
		for i := range rounds {
			for c := range rounds[i] {
				if rounds[i][c].spec.Named != "" {
					rounds[i][c].spec = named
				}
			}
		}
		for _, r := range w.runRounds(rounds, nil, 0) {
			w.warmJobs++
			if !r.joined {
				records++
			}
			if r.err != "" {
				w.warmFails = append(w.warmFails, fmt.Sprintf("warm-up %s (%s): %s", r.spec, r.kind, r.err))
			}
		}
		req := named.req
		freeRequests(rounds)
		named.req = req
	}
	return nil
}

// populateStore fills a result store with storeEntries results of a
// previous daemon run, under keys no job of this run can have.
func populateStore(dir string) error {
	store, err := jobqueue.OpenStore(dir)
	if err != nil {
		return err
	}
	body, err := (&jobqueue.ResultBody{
		Version:     version.String("cachesimd"),
		TraceDigest: "previous-daemon",
		Configs:     []jobqueue.ConfigResult{{Label: "sys=baseline"}, {Label: "sys=improved"}},
	}).Encode()
	if err != nil {
		return err
	}
	for i := 0; i < storeEntries; i++ {
		if err := store.Put(fmt.Sprintf("earlier-%04d", i), body); err != nil {
			return err
		}
	}
	return nil
}

// uploadRecords is the trace upload n sends.
func (w *jobsMixed) uploadRecords(n int) []memtrace.Access {
	recs := make([]memtrace.Access, len(w.base)+1)
	copy(recs, w.base)
	recs[len(w.base)] = memtrace.Access{Addr: memtrace.Addr(tailBase + 64*n), Kind: memtrace.Load}
	return recs
}

// newFresh mints the planner's next fresh spec and its request body.
func (w *jobsMixed) newFresh(e *env, pl *planner, named string) (*jobSpec, error) {
	pl.fresh++
	req := jobqueue.SubmitRequest{Configs: specList(jobConfigs)}
	s := &jobSpec{Named: named}
	if named != "" {
		// A relative step of 1e-9 per spec keeps the work the same while
		// making every scale, and so every result-store key, distinct.
		s.Scale = jobNamedScale * e.factor * (1 + float64(pl.fresh)*1e-9)
		req.Benchmark, req.Scale = named, s.Scale
	} else {
		s.Upload = pl.fresh
		recs := w.uploadRecords(s.Upload)
		tr := memtrace.NewTrace(len(recs))
		for _, a := range recs {
			tr.Append(a)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return nil, err
		}
		req.Trace = base64.StdEncoding.EncodeToString(buf.Bytes())
		req.TraceFormat = jobqueue.FormatJTR1
	}
	var err error
	s.req, err = json.Marshal(req)
	return s, err
}

type round [2]struct {
	spec *jobSpec
	kind string
}

// plan lays out one block. Both clients do the same kind of job in a
// round, and the same program in a named round, so neither waits long
// for the other.
func (w *jobsMixed) plan(e *env, pl *planner) ([]round, error) {
	// With 3 of 11 rounds store hits and 2 uploads, the median job falls
	// in the middle of the smallest named program's jobs, not on the
	// edge between two kinds of job.
	kinds := []string{"upload", "dedup", "repeat", "repeat", "repeat"}
	for _, p := range workload.Names() {
		kinds = append(kinds, "named:"+p)
	}
	// A repeat needs an earlier completed spec in its block, so the
	// first round is never one.
	for {
		pl.rnd.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		if kinds[0] != "repeat" {
			break
		}
	}
	rounds := make([]round, len(kinds))
	var earlier [2][]*jobSpec
	for r, k := range kinds {
		rd := &rounds[r]
		for c := 0; c < 2; c++ {
			var err error
			kind := k
			switch k {
			case "repeat":
				rd[c].spec = earlier[c][pl.rnd.Intn(len(earlier[c]))]
			case "dedup":
				rd[c].spec = rd[0].spec
				if c == 0 {
					rd[c].spec, err = w.newFresh(e, pl, "")
				}
			case "upload":
				rd[c].spec, err = w.newFresh(e, pl, "")
				kind = "fresh"
			default:
				rd[c].spec, err = w.newFresh(e, pl, strings.TrimPrefix(k, "named:"))
				kind = "fresh"
			}
			if err != nil {
				return nil, err
			}
			rd[c].kind = kind
			earlier[c] = append(earlier[c], rd[c].spec)
		}
	}
	return rounds, nil
}

// runRounds submits a block's rounds, both clients of a round at once.
func (w *jobsMixed) runRounds(rounds []round, tr *tracer, root int) []jobRecord {
	var block []jobRecord
	for _, rd := range rounds {
		var recs [2]jobRecord
		done := make(chan struct{})
		for c := 0; c < 2; c++ {
			go func(c int) {
				defer func() { done <- struct{}{} }()
				recs[c] = w.submit(w.clients[c], rd[c].spec, tr, root)
				recs[c].kind = rd[c].kind
			}(c)
		}
		<-done
		<-done
		// A store hit mints a job of its own, so two submissions that
		// share an ID are one run and a join.
		if recs[0].id != "" && recs[0].id == recs[1].id {
			recs[1].joined = true
		}
		block = append(block, recs[0], recs[1])
	}
	return block
}

// freeRequests drops a block's request bodies, up to a megabyte each:
// repeats come from the same block, so nothing posts them again.
func freeRequests(rounds []round) {
	for _, rd := range rounds {
		rd[0].spec.req, rd[1].spec.req = nil, nil
	}
}

func (w *jobsMixed) pass(e *env, tr *tracer, root int) (passOut, error) {
	var p passOut
	rounds, err := w.plan(e, &w.meas)
	if err != nil {
		return p, err
	}
	m := startMeter()
	block := w.runRounds(rounds, tr, root)
	m.stop(&p)
	for _, r := range block {
		p.jobs = append(p.jobs, r.latency)
		b, err := jobqueue.DecodeResult(r.body)
		if err != nil {
			continue // reported by the gate
		}
		for _, c := range b.Configs {
			p.results = append(p.results, c.Results)
		}
		if !r.cacheHit && !r.joined && len(b.Configs) > 0 {
			recs := b.Configs[0].Results.I.Accesses + b.Configs[0].Results.D.Accesses
			p.records += recs
			p.simAcc += recs * uint64(len(b.Configs))
		}
	}
	freeRequests(rounds)
	w.jobs = append(w.jobs, block...)
	return p, nil
}

// submit posts one job and follows it to a terminal state: the latency
// runs from the POST to the end of the job's event stream, which closes
// when the job is terminal. A store hit answers the POST itself.
func (w *jobsMixed) submit(c *http.Client, s *jobSpec, tr *tracer, root int) jobRecord {
	rec := jobRecord{spec: s}
	jobSpan, jobStart := tr.open("job", root)
	defer tr.close(jobSpan)
	t0 := time.Now()
	var st jobqueue.Status
	resp, err := c.Post(w.svc.url+"/jobs", "application/json", bytes.NewReader(s.req))
	if err == nil {
		rec.code = resp.StatusCode
		err = decodeBody(resp, &st)
	}
	tr.record("submit", jobSpan, jobStart)
	if err != nil || (rec.code != http.StatusOK && rec.code != http.StatusAccepted) {
		rec.latency = time.Since(t0)
		rec.err = fmt.Sprintf("POST /jobs: %d %v", rec.code, err)
		return rec
	}
	rec.id, rec.cacheHit = st.ID, st.CacheHit
	if rec.code == http.StatusAccepted {
		t1 := tr.now()
		resp, err := c.Get(w.svc.url + "/jobs/" + st.ID + "/events")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		rec.latency = time.Since(t0)
		tr.record("wait", jobSpan, t1)
		t2 := tr.now()
		if err == nil {
			resp, err = c.Get(w.svc.url + "/jobs/" + st.ID)
			if err == nil {
				err = decodeBody(resp, &st)
			}
		}
		tr.record("fetch", jobSpan, t2)
		if err != nil {
			rec.err = err.Error()
			return rec
		}
	} else {
		rec.latency = time.Since(t0)
	}
	if st.State != jobqueue.StateDone {
		rec.err = fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	rec.body = st.Result
	return rec
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// gate checks every job: it ended done, and its body equals a direct
// library replay of its spec (a repeat's body equals, byte for byte, the
// body its spec first produced). Warm-up jobs are checked to end done.
func (w *jobsMixed) gate(e *env, passes []passOut) (int, []string) {
	failures := append([]string(nil), w.warmFails...)
	first := map[*jobSpec][]byte{}
	var uploads, named []*jobSpec
	for _, r := range w.jobs {
		if r.err != "" {
			failures = append(failures, fmt.Sprintf("%s (%s): %s", r.spec, r.kind, r.err))
			continue
		}
		if b, ok := first[r.spec]; ok {
			if !bytes.Equal(b, r.body) {
				failures = append(failures, fmt.Sprintf("%s (%s): body differs from the spec's first body", r.spec, r.kind))
			}
			continue
		}
		first[r.spec] = r.body
		if r.spec.Named != "" {
			named = append(named, r.spec)
		} else {
			uploads = append(uploads, r.spec)
		}
	}
	want, err := w.directUploads(uploads)
	if err != nil {
		return w.warmJobs, append(failures, err.Error())
	}
	// Named specs differ only by a tiny scale step; specs whose
	// generated streams are identical share one direct replay.
	digests := make([]string, len(named))
	parallel(len(named), func(i int) {
		digests[i] = streamDigest(workload.MustByName(named[i].Named), named[i].Scale)
	})
	cfgs := make([]sim.Config, len(jobConfigs))
	for i, c := range jobConfigs {
		if cfgs[i], err = c.sim(); err != nil {
			return w.warmJobs, append(failures, err.Error())
		}
	}
	memo := map[string][]sim.Results{}
	for i, s := range named {
		d := digests[i]
		if _, ok := memo[d]; !ok {
			if memo[d], err = sim.ReplayMany(s.Named, s.Scale, cfgs); err != nil {
				return w.warmJobs, append(failures, err.Error())
			}
		}
		want[s] = memo[d]
	}
	for s, results := range want {
		b, err := jobqueue.DecodeResult(first[s])
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", s, err))
			continue
		}
		var got []sim.Results
		for _, c := range b.Configs {
			got = append(got, c.Results)
		}
		if digest(got) != digest(results) {
			failures = append(failures, fmt.Sprintf("%s: job body differs from a direct library replay", s))
		}
	}
	fmt.Fprintf(e.out, "verified %d distinct job bodies against direct replays (%d distinct named streams); %d warm-up jobs\n",
		len(want), len(memo), w.warmJobs)
	hits, joins, refused := w.tally()
	fmt.Fprintf(e.out, "store hits %d of %d jobs (%.1f%%), dedup joins %d, refused %d\n",
		hits, len(w.jobs), 100*float64(hits)/float64(len(w.jobs)), joins, refused)
	return w.warmJobs, failures
}

// directUploads replays each upload's records through a fresh system of
// each job configuration.
func (w *jobsMixed) directUploads(specs []*jobSpec) (map[*jobSpec][]sim.Results, error) {
	results := make([][]sim.Results, len(specs))
	errs := make([]error, len(specs))
	parallel(len(specs), func(i int) {
		recs := w.uploadRecords(specs[i].Upload)
		for _, c := range jobConfigs {
			r, err := hierReplay(c.hier(), recs)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = append(results[i], simResults(r))
		}
	})
	out := map[*jobSpec][]sim.Results{}
	for i, s := range specs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[s] = results[i]
	}
	return out, nil
}

// parallel calls f for 0..n-1 on GOMAXPROCS goroutines.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += workers {
				f(i)
			}
		}(k)
	}
	wg.Wait()
}

func (w *jobsMixed) digest(p passOut) string { return passDigest(p) }

// tally counts the store hits, dedup joins and refusals among the jobs.
func (w *jobsMixed) tally() (hits, joins, refused int) {
	for _, r := range w.jobs {
		if r.cacheHit {
			hits++
		}
		if r.joined {
			joins++
		}
		if r.code == http.StatusTooManyRequests {
			refused++
		}
	}
	return hits, joins, refused
}

func (w *jobsMixed) layers(e *env, passes []passOut, m metrics) error {
	hits, joins, refused := w.tally()
	m.set("jobqueue.store_hit_frac", float64(hits)/float64(len(w.jobs)), "ratio")
	m.set("jobqueue.dedup_joins", float64(joins), "count")
	m.set("jobqueue.refused", float64(refused), "count")
	for _, s := range w.svc.queue.SLO().Summary() {
		switch s.Span {
		case "queue-wait":
			m.set("jobqueue.queue_wait_p50_s", s.P50, "s")
		case "attempt":
			m.set("jobqueue.attempt_p50_s", s.P50, "s")
		}
		fmt.Fprintf(e.out, "SLO %s: %d samples, p50 %.6fs, p90 %.6fs, p99 %.6fs (histogram buckets)\n",
			s.Span, s.Count, s.P50, s.P90, s.P99)
	}

	// The store's read and write paths, timed on the same bodies in a
	// store of their own.
	store, err := jobqueue.OpenStore(filepath.Join(e.work, "store-timing"))
	if err != nil {
		return err
	}
	var put, get []float64
	for i, r := range w.jobs {
		if r.body == nil || r.kind == "repeat" {
			continue
		}
		key := fmt.Sprintf("%064x", i)
		t0 := time.Now()
		if err := store.Put(key, r.body); err != nil {
			return err
		}
		put = append(put, time.Since(t0).Seconds())
		t1 := time.Now()
		b, ok := store.Get(key)
		get = append(get, time.Since(t1).Seconds())
		if !ok || !bytes.Equal(b, r.body) {
			return fmt.Errorf("store read back a different body")
		}
	}
	m.set("jobqueue.store_put_s", median(put), "s")
	m.set("jobqueue.store_get_s", median(get), "s")

	win := w.buffered(e)
	var hres []hierarchy.Results
	for _, c := range jobConfigs {
		r, err := hierReplay(c.hier(), win)
		if err != nil {
			return err
		}
		hres = append(hres, r)
	}
	if err := commonLayers(e, m, jobConfigs, win, jobNamedScale*e.factor); err != nil {
		return err
	}
	countMetrics(m, hres)
	notApplicable(e, m, "shardreplay.producer_busy_s", "shardreplay.shard_imbalance", "shardreplay.speedup_vs_seq",
		"fanout.producer_busy_s", "fanout.consumer_wait_s", "fanout.chunks", "fanout.max_lag")
	return nil
}

// buffered is the stream the uploads are the first records of.
func (w *jobsMixed) buffered(e *env) []memtrace.Access {
	return window(e.in.benchmark(), jobNamedScale, windowLen)
}

func (w *jobsMixed) setupSamples() []time.Duration { return w.setups }

func (w *jobsMixed) cleanup() {
	if w.svc != nil {
		w.svc.stop()
	}
	for _, c := range w.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
}
