package jobqueue

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jouppi/internal/backoff"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/sim"
)

// testTraceDin renders a small deterministic din trace: n instruction
// fetches interleaved with loads and stores.
func testTraceDin(n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "2 %x\n", 0x1000+16*i) // ifetch
		switch i % 3 {
		case 0:
			fmt.Fprintf(&buf, "0 %x\n", 0x80000+8*(i%64)) // load
		case 1:
			fmt.Fprintf(&buf, "1 %x\n", 0x90000+8*(i%32)) // store
		}
	}
	return buf.Bytes()
}

func uploadSpec(t *testing.T, trace []byte, configs string) *Spec {
	t.Helper()
	cfgs, err := ParseConfigs(configs)
	if err != nil {
		t.Fatal(err)
	}
	return &Spec{
		TraceData:   trace,
		TraceFormat: FormatDinero,
		Configs:     cfgs,
		Retries:     -1,
	}
}

// waitJob blocks until the job is terminal, failing the test on hang.
func waitJob(t *testing.T, j *Job) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not settle: %v", j.ID(), err)
	}
	return j.Status()
}

func metric(reg *telemetry.Registry, name string) float64 {
	return reg.Snapshot()[name]
}

func TestQueueRunsUploadedJobAndMatchesDirectReplay(t *testing.T) {
	trace := testTraceDin(400)
	reg := telemetry.NewRegistry()
	q := NewQueue(Options{Workers: 2, Registry: reg, Version: "test"})
	defer q.Drain(time.Second)

	spec := uploadSpec(t, trace, ";victim=4;misscache=2")
	job, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, job)
	if st.State != StateDone {
		t.Fatalf("state = %s, err %q", st.State, st.Error)
	}
	if st.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", st.Attempts)
	}
	body, err := DecodeResult(job.Result())
	if err != nil {
		t.Fatal(err)
	}
	if len(body.Configs) != 3 {
		t.Fatalf("got %d config results, want 3", len(body.Configs))
	}
	if body.Degradation != nil {
		t.Fatalf("clean trace reported degradation: %+v", body.Degradation)
	}

	// The daemon's numbers must be exactly what a direct replay produces.
	tr, err := memtrace.ReadDinero(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if body.Records != uint64(tr.Len()) {
		t.Fatalf("records = %d, want %d", body.Records, tr.Len())
	}
	for i, cs := range spec.Configs {
		sys, err := sim.NewSystem(cs.Config)
		if err != nil {
			t.Fatal(err)
		}
		tr.Each(func(a memtrace.Access) {
			switch a.Kind {
			case memtrace.Ifetch:
				sys.Ifetch(uint64(a.Addr))
			case memtrace.Load:
				sys.Load(uint64(a.Addr))
			case memtrace.Store:
				sys.Store(uint64(a.Addr))
			}
		})
		if want := sys.Results(); body.Configs[i].Results != want {
			t.Errorf("config %q results diverge:\n got %+v\nwant %+v",
				cs.Label, body.Configs[i].Results, want)
		}
	}
	if got := metric(reg, "jobqueue_completed_total"); got != 1 {
		t.Fatalf("jobqueue_completed_total = %v, want 1", got)
	}
}

func TestQueueCacheHitIsByteIdentical(t *testing.T) {
	reg := telemetry.NewRegistry()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(Options{Workers: 1, Store: store, Registry: reg, Version: "test"})
	defer q.Drain(time.Second)

	spec := uploadSpec(t, testTraceDin(100), "victim=2")
	first, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, first)

	second, err := q.Submit(uploadSpec(t, testTraceDin(100), "victim=2"))
	if err != nil {
		t.Fatal(err)
	}
	st := second.Status()
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("second submission: state %s, cacheHit %v", st.State, st.CacheHit)
	}
	if second.ID() == first.ID() {
		t.Fatal("cache hit reused the original job record")
	}
	if !bytes.Equal(first.Result(), second.Result()) {
		t.Fatal("cache hit is not byte-identical to the computed result")
	}
	if got := metric(reg, "jobqueue_cache_hits_total"); got != 1 {
		t.Fatalf("jobqueue_cache_hits_total = %v, want 1", got)
	}
	if got := metric(reg, "jobqueue_cache_misses_total"); got != 1 {
		t.Fatalf("jobqueue_cache_misses_total = %v, want 1", got)
	}
}

// A finished job must not pin its uploaded trace: up to MaxJobs terminal
// records stay retained for status lookups, and none of them reads its
// spec again. Both ways a job ends up terminal are covered: run to
// completion, and answered from the result store at submission.
func TestFinishedJobReleasesUpload(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(Options{Workers: 1, Store: store, Version: "test"})
	defer q.Drain(time.Second)

	for _, label := range []string{"run", "cache hit"} {
		job, err := q.Submit(uploadSpec(t, testTraceDin(100), "victim=2"))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, job); st.State != StateDone || st.CacheHit != (label == "cache hit") {
			t.Fatalf("%s: state %s, cacheHit %v", label, st.State, st.CacheHit)
		}
		job.mu.Lock()
		spec := job.spec
		job.mu.Unlock()
		if spec != nil {
			t.Errorf("%s: finished job still references its %d-byte upload", label, len(spec.TraceData))
		}
	}
}

func TestQueueJoinsIdenticalInFlightSubmissions(t *testing.T) {
	release := make(chan struct{})
	reg := telemetry.NewRegistry()
	q := NewQueue(Options{
		Workers:  1,
		Registry: reg,
		Version:  "test",
		Runner: func(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
			<-release
			return &ResultBody{Version: version, TraceDigest: spec.TraceDigest()}, nil
		},
	})
	defer q.Drain(time.Second)

	a, err := q.Submit(uploadSpec(t, testTraceDin(10), ""))
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Submit(uploadSpec(t, testTraceDin(10), ""))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical in-flight submission did not join the primary job")
	}
	c, err := q.Submit(uploadSpec(t, testTraceDin(11), ""))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different spec joined the wrong job")
	}
	close(release)
	waitJob(t, a)
	waitJob(t, c)
	if got := metric(reg, "jobqueue_joined_total"); got != 1 {
		t.Fatalf("jobqueue_joined_total = %v, want 1", got)
	}
}

func TestQueueFullRejectsWithErrQueueFull(t *testing.T) {
	release := make(chan struct{})
	reg := telemetry.NewRegistry()
	q := NewQueue(Options{
		Workers: 1, QueueDepth: 1, Registry: reg, Version: "test",
		Runner: func(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
			<-release
			return &ResultBody{TraceDigest: spec.TraceDigest()}, nil
		},
	})
	defer func() { close(release); q.Drain(time.Second) }()

	// Fill the worker and then the one queue slot with distinct specs.
	if _, err := q.Submit(uploadSpec(t, testTraceDin(1), "")); err != nil {
		t.Fatal(err)
	}
	// The worker may not have picked up the first job yet, so the second
	// or third submission fills the queue slot; by the fourth the queue
	// must be full regardless of scheduling.
	var full bool
	for i := 2; i <= 4; i++ {
		_, err := q.Submit(uploadSpec(t, testTraceDin(i), ""))
		if errors.Is(err, ErrQueueFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("queue never filled")
	}
	if got := metric(reg, "jobqueue_queue_full_total"); got < 1 {
		t.Fatalf("jobqueue_queue_full_total = %v, want >= 1", got)
	}
}

func TestQueueRetriesTransientFailuresWithBackoff(t *testing.T) {
	var calls atomic.Int32
	reg := telemetry.NewRegistry()
	q := NewQueue(Options{
		Workers: 1, Retries: 3, Registry: reg, Version: "test",
		Backoff: backoff.Policy{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Runner: func(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
			if calls.Add(1) <= 2 {
				return nil, fmt.Errorf("transient: simulated storage hiccup")
			}
			return &ResultBody{Version: version, TraceDigest: spec.TraceDigest()}, nil
		},
	})
	defer q.Drain(time.Second)

	job, err := q.Submit(uploadSpec(t, testTraceDin(5), ""))
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, job)
	if st.State != StateDone {
		t.Fatalf("state = %s, err %q", st.State, st.Error)
	}
	if st.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two transient failures, then success)", st.Attempts)
	}
	if got := metric(reg, "jobqueue_retries_total"); got != 2 {
		t.Fatalf("jobqueue_retries_total = %v, want 2", got)
	}
}

func TestQueueAcceptsPermanentFailureImmediately(t *testing.T) {
	var calls atomic.Int32
	q := NewQueue(Options{
		Workers: 1, Retries: 5, Version: "test",
		Runner: func(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
			calls.Add(1)
			return nil, Permanent(fmt.Errorf("corrupt input"))
		},
	})
	defer q.Drain(time.Second)

	job, err := q.Submit(uploadSpec(t, testTraceDin(5), ""))
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, job)
	if st.State != StateFailed || !strings.Contains(st.Error, "corrupt input") {
		t.Fatalf("state = %s, err %q", st.State, st.Error)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("runner called %d times for a permanent failure, want 1", got)
	}
}

func TestQueueCorruptUploadFailsPermanently(t *testing.T) {
	q := NewQueue(Options{Workers: 1, Retries: 4, Version: "test"})
	defer q.Drain(time.Second)

	// Strict decode of a damaged din trace: permanent failure, one attempt.
	spec := uploadSpec(t, []byte("0 1000\nthis is not a record\n"), "")
	job, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, job)
	if st.State != StateFailed {
		t.Fatalf("state = %s", st.State)
	}
	if st.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (decode failures are permanent)", st.Attempts)
	}

	// The same bytes decoded leniently succeed with a degradation report.
	lenient := uploadSpec(t, []byte("0 1000\nthis is not a record\n"), "")
	lenient.Lenient = true
	job2, err := q.Submit(lenient)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, job2)
	if st2.State != StateDone {
		t.Fatalf("lenient state = %s, err %q", st2.State, st2.Error)
	}
	body, err := DecodeResult(job2.Result())
	if err != nil {
		t.Fatal(err)
	}
	if body.Degradation == nil || body.Degradation.Dropped != 1 {
		t.Fatalf("degradation = %+v, want 1 dropped record", body.Degradation)
	}
	if body.Records != 1 {
		t.Fatalf("records = %d, want 1", body.Records)
	}
}

func TestDrainRejectsQueuedCompletesInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	reg := telemetry.NewRegistry()
	q := NewQueue(Options{
		Workers: 1, QueueDepth: 4, Registry: reg, Version: "test",
		Runner: func(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
			started <- struct{}{}
			<-release
			return &ResultBody{Version: version, TraceDigest: spec.TraceDigest()}, nil
		},
	})

	inflight, err := q.Submit(uploadSpec(t, testTraceDin(1), ""))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var queued []*Job
	for i := 2; i <= 3; i++ {
		j, err := q.Submit(uploadSpec(t, testTraceDin(i), ""))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	sum := q.Drain(10 * time.Second)
	if sum.Forced {
		t.Fatal("drain was forced despite the job finishing in time")
	}
	if sum.Rejected != len(queued) {
		t.Fatalf("rejected %d, want %d", sum.Rejected, len(queued))
	}
	if st := inflight.Status(); st.State != StateDone {
		t.Fatalf("in-flight job state = %s, want done", st.State)
	}
	for _, j := range queued {
		st := j.Status()
		if st.State != StateRejected || !strings.Contains(st.Error, "draining") {
			t.Fatalf("queued job state = %s, err %q; want rejected/draining", st.State, st.Error)
		}
	}
	if _, err := q.Submit(uploadSpec(t, testTraceDin(9), "")); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
	if got := metric(reg, "jobqueue_rejected_total"); got != float64(len(queued)) {
		t.Fatalf("jobqueue_rejected_total = %v, want %d", got, len(queued))
	}
}

func TestDrainDeadlineForcesCancellation(t *testing.T) {
	started := make(chan struct{}, 1)
	q := NewQueue(Options{
		Workers: 1, Version: "test",
		Runner: func(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
			started <- struct{}{}
			<-ctx.Done() // a hung job that only cancellation can end
			return nil, ctx.Err()
		},
	})
	job, err := q.Submit(uploadSpec(t, testTraceDin(1), ""))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	start := time.Now()
	sum := q.Drain(50 * time.Millisecond)
	if !sum.Forced {
		t.Fatal("drain not marked forced")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("forced drain took %v", elapsed)
	}
	if st := job.Status(); st.State != StateFailed {
		t.Fatalf("hung job state = %s, want failed", st.State)
	}
}

func TestJobEventsStreamFollowsJournalSchema(t *testing.T) {
	q := NewQueue(Options{Workers: 1, Version: "test"})
	defer q.Drain(time.Second)

	job, err := q.Submit(uploadSpec(t, testTraceDin(20), ""))
	if err != nil {
		t.Fatal(err)
	}
	// Stream concurrently with the run; the stream ends when the job
	// settles and the log closes.
	var buf bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.StreamEvents(ctx, func(chunk []byte) error {
		buf.Write(chunk)
		return nil
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	events, err := telemetry.ReadEvents(&buf)
	if err != nil {
		t.Fatalf("events are not valid journal JSONL: %v", err)
	}
	// Span closes interleave with the RunAll lifecycle events on the same
	// journal; the lifecycle framing must survive unchanged underneath.
	var kinds, spans []string
	var expStart *telemetry.Event
	for i, e := range events {
		if e.Event == "span" {
			spans = append(spans, e.Span)
			continue
		}
		kinds = append(kinds, e.Event)
		if e.Event == "experiment-start" && expStart == nil {
			expStart = &events[i]
		}
	}
	want := []string{"run-start", "experiment-start", "experiment-finish", "run-finish"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("lifecycle event kinds = %v, want %v", kinds, want)
	}
	if expStart == nil || expStart.ID != job.ID() {
		t.Fatalf("experiment-start ID = %+v, want job ID %q", expStart, job.ID())
	}
	// The same log carries the job's span tree; the root span ("job")
	// closes last.
	if len(spans) == 0 || spans[len(spans)-1] != "job" {
		t.Fatalf("span closes = %v, want non-empty ending in \"job\"", spans)
	}
	for _, name := range []string{"queue-wait", "attempt", "job"} {
		found := false
		for _, s := range spans {
			if s == name {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("span closes = %v, missing %q", spans, name)
		}
	}
}

func TestQueueEvictsOldestTerminalJobs(t *testing.T) {
	q := NewQueue(Options{Workers: 1, MaxJobs: 3, Version: "test"})
	defer q.Drain(time.Second)

	var ids []string
	for i := 0; i < 6; i++ {
		job, err := q.Submit(uploadSpec(t, testTraceDin(i+1), ""))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, job)
		ids = append(ids, job.ID())
	}
	if _, ok := q.Job(ids[0]); ok {
		t.Fatal("oldest job survived eviction")
	}
	if _, ok := q.Job(ids[len(ids)-1]); !ok {
		t.Fatal("newest job evicted")
	}
}
