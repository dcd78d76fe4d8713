package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The cancellable replay path (goroutine-fed source through
// ReplayManyContext) must produce results identical to the direct push
// path RunBenchmark uses.
func TestRunBenchmarkContextMatchesRunBenchmark(t *testing.T) {
	cfg := BaselineSystem()
	plain, err := RunBenchmark("linpack", 0.05, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// context.Background has a nil Done channel, so force the pull-based
	// path with a cancellable (but never cancelled) context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := ReplayManyContext(ctx, "linpack", 0.05, 0, nil, []Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if plain != withCtx[0] {
		t.Errorf("results differ:\n push: %+v\n pull: %+v", plain, withCtx[0])
	}
}

func TestRunBenchmarkContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ReplayManyContext(ctx, "linpack", 0.5, 0, nil, []Config{BaselineSystem()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunExperimentContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunExperimentContext(ctx, "table2-1", 0.05)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunBenchmarkContextTimeoutStopsLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	// A scale this large would run for a long time uninterrupted; the
	// deadline must cut it short promptly.
	_, err := ReplayManyContext(ctx, "linpack", 500, 0, nil, []Config{BaselineSystem()})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v to take effect", elapsed)
	}
}
