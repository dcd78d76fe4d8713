package sim

import (
	"context"
	"testing"

	"jouppi/internal/trace"
)

// TestTracedReplayBitIdentical pins the zero-interference contract of
// the tracing layer: attaching a span context to a replay changes no
// simulated number. Every Results field must be bit-identical between a
// detached replay and the same replay under a live root span.
func TestTracedReplayBitIdentical(t *testing.T) {
	cfgs := []Config{BaselineSystem(), ImprovedSystem(), BaselineSystem(), ImprovedSystem()}
	for _, name := range Benchmarks() {
		detached, err := ReplayMany(name, 0.05, cfgs)
		if err != nil {
			t.Fatalf("%s detached: %v", name, err)
		}

		tr := trace.New(trace.Options{})
		root := tr.Root("job", "equiv-"+name, nil)
		ctx := trace.ContextWith(context.Background(), root)
		attached, err := ReplayManyContext(ctx, name, 0.05, 0, nil, cfgs)
		root.End()
		if err != nil {
			t.Fatalf("%s attached: %v", name, err)
		}

		for i := range cfgs {
			if attached[i] != detached[i] {
				t.Errorf("%s config %d: traced %+v\n  != detached %+v",
					name, i, attached[i], detached[i])
			}
		}

		// The replay produced a real span tree: one replay span plus one
		// concurrent consumer span per configuration (under -race this is
		// the fan-out span-emission safety check).
		td, ok := tr.TraceByID("equiv-" + name)
		if !ok {
			t.Fatalf("%s: no trace retained", name)
		}
		rsp, ok := td.Span("replay")
		if !ok {
			t.Fatalf("%s: no replay span", name)
		}
		if rsp.Attr("records") == "" || rsp.Attr("benchmark") != name {
			t.Fatalf("%s: replay attrs = %v", name, rsp.Attrs)
		}
		var consumers int
		for _, s := range td.Spans {
			if s.Name == "consumer" {
				consumers++
				if s.Parent != rsp.ID {
					t.Fatalf("%s: consumer parent = %q, want replay %q", name, s.Parent, rsp.ID)
				}
			}
		}
		if consumers != len(cfgs) {
			t.Fatalf("%s: consumer spans = %d, want %d", name, consumers, len(cfgs))
		}
	}
}
