package shardreplay_test

// The differential harness pins the package contract — "bit-identical
// or loudly fall back" — by replaying every golden-figure configuration
// shape both ways over the paper workloads and demanding that every
// counter and every derived float in hierarchy.Results matches to the
// last bit (math.Float64bits, not an epsilon). A randomized sweep over
// seeded geometries extends the pin beyond the hand-picked shapes.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/shardreplay"
	"jouppi/internal/workload"
)

// diffScale matches the golden snapshot suite's scale, so the traces
// replayed here are exactly the traces whose figures the goldens pin,
// while the full matrix stays fast under -race.
const diffScale = 0.05

// diffTraces caches one generated trace per benchmark; every case
// replays fresh cursors over the same immutable records.
var diffTraces = map[string]*memtrace.Trace{}

func diffTrace(tb testing.TB, name string) *memtrace.Trace {
	if tr, ok := diffTraces[name]; ok {
		return tr
	}
	b, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("unknown benchmark %q", name)
	}
	tr := workload.GenerateTrace(b, diffScale)
	diffTraces[name] = tr
	return tr
}

// requireBitIdentical walks two hierarchy.Results with reflection and
// fails on the first field whose bits differ. Floats are compared by
// Float64bits — stricter than ==, which would let -0 and NaN slip by.
func requireBitIdentical(t *testing.T, want, got hierarchy.Results) {
	t.Helper()
	diffValue(t, "Results", reflect.ValueOf(want), reflect.ValueOf(got))
}

func diffValue(t *testing.T, path string, want, got reflect.Value) {
	t.Helper()
	switch want.Kind() {
	case reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			diffValue(t, path+"."+want.Type().Field(i).Name, want.Field(i), got.Field(i))
		}
	case reflect.Float64:
		w, g := want.Float(), got.Float()
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Errorf("%s: sequential %v (bits %#x) != sharded %v (bits %#x)",
				path, w, math.Float64bits(w), g, math.Float64bits(g))
		}
	case reflect.Uint64, reflect.Uint, reflect.Uint32:
		if want.Uint() != got.Uint() {
			t.Errorf("%s: sequential %d != sharded %d", path, want.Uint(), got.Uint())
		}
	default:
		if !reflect.DeepEqual(want.Interface(), got.Interface()) {
			t.Errorf("%s: sequential %v != sharded %v", path, want.Interface(), got.Interface())
		}
	}
}

// replaySequential is the reference path: one hierarchy.System pulled
// straight off a cursor.
func replaySequential(t *testing.T, cfg hierarchy.Config, tr *memtrace.Trace) hierarchy.Results {
	t.Helper()
	sys, err := hierarchy.New(cfg)
	if err != nil {
		t.Fatalf("hierarchy.New: %v", err)
	}
	if err := sys.RunSourceContext(context.Background(), tr.Source()); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	return sys.Results(tr.Instructions())
}

// replayShardedN replays the same trace through a sharded hierarchy and
// returns the merged results plus the decision that was taken.
func replayShardedN(t *testing.T, cfg hierarchy.Config, tr *memtrace.Trace, shards int) (hierarchy.Results, shardreplay.Decision) {
	t.Helper()
	h, err := shardreplay.NewHierarchy(cfg, shards)
	if err != nil {
		t.Fatalf("shardreplay.NewHierarchy: %v", err)
	}
	if err := h.Replay(context.Background(), tr.Source()); err != nil {
		t.Fatalf("sharded replay: %v", err)
	}
	return h.Results(tr.Instructions()), h.Decision()
}

// diffCase is one golden-figure configuration shape: the system config,
// whether the planner must shard it, and — when it must not — a
// substring the fallback reason has to contain.
type diffCase struct {
	name     string
	cfg      hierarchy.Config
	sharded  bool
	fallback string
	benches  []string // nil means ccom+liver
}

func l1(size, line, assoc int) cache.Config {
	return cache.Config{Name: "L1", Size: size, LineSize: line, Assoc: assoc}
}

// goldenCases mirrors the golden snapshot suite's figure configurations
// (internal/experiments/testdata/golden): one differential case per
// figure shape, plus the pure-geometry variants those figures sweep.
func goldenCases() []diffCase {
	mk := func(name string, sharded bool, fb string, mut func(*hierarchy.Config)) diffCase {
		c := diffCase{name: name, sharded: sharded, fallback: fb}
		mut(&c.cfg)
		return c
	}
	stream := core.StreamConfig{Ways: 1, Depth: 4}
	return []diffCase{
		// Figure 2-2: the paper baseline — pure direct-mapped, shardable.
		// Run all six paper workloads through it; this is the headline pin.
		{name: "fig2-2/baseline", sharded: true, benches: workload.Names()},
		// Figure 2-2's loss bands sweep L1 size implicitly; pin the
		// geometry extremes the golden suite visits.
		mk("fig2-2/l1-1k", true, "", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(1024, 16, 1), l1(1024, 16, 1)
		}),
		mk("fig2-2/l1-64k", true, "", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(64<<10, 16, 1), l1(64<<10, 16, 1)
		}),
		mk("fig2-2/line-32", true, "", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(4096, 32, 1), l1(4096, 32, 1)
		}),
		// Figure 3-1: miss caches — a shared FA structure, must fall back.
		mk("fig3-1/miss-cache-4", false, "miss-cache", func(c *hierarchy.Config) {
			c.DAugment = hierarchy.Augment{Kind: hierarchy.MissCache, Entries: 4}
		}),
		// Figure 3-3: victim caches — must fall back.
		mk("fig3-3/victim-4", false, "victim-cache", func(c *hierarchy.Config) {
			c.DAugment = hierarchy.Augment{Kind: hierarchy.VictimCache, Entries: 4}
		}),
		// Figure 4-1: instruction stream buffer — must fall back.
		mk("fig4-1/i-stream", false, "stream-buffers", func(c *hierarchy.Config) {
			c.IAugment = hierarchy.Augment{Kind: hierarchy.StreamBuffers, Stream: stream}
		}),
		// Figure 4-3: data stream buffer — must fall back.
		mk("fig4-3/d-stream", false, "stream-buffers", func(c *hierarchy.Config) {
			c.DAugment = hierarchy.Augment{Kind: hierarchy.StreamBuffers, Stream: stream}
		}),
		// Figure 4-6 sweeps stream-buffer gain over cache size; the
		// buffers force the fallback, while the underlying geometries
		// shard. Pin both halves of that matrix.
		mk("fig4-6/stream-16k", false, "stream-buffers", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(16<<10, 16, 1), l1(16<<10, 16, 1)
			c.IAugment = hierarchy.Augment{Kind: hierarchy.StreamBuffers, Stream: stream}
		}),
		mk("fig4-6/bare-16k", true, "", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(16<<10, 16, 1), l1(16<<10, 16, 1)
		}),
		// Set-associative L1s: LRU is within-set order, still shardable.
		mk("assoc/2-way", true, "", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(4096, 16, 2), l1(4096, 16, 2)
		}),
		mk("assoc/4-way-fifo", true, "", func(c *hierarchy.Config) {
			c.L1I, c.L1D = l1(4096, 16, 4), l1(4096, 16, 4)
			c.L1I.Replacement, c.L1D.Replacement = cache.FIFO, cache.FIFO
		}),
		// The L2 extensions couple globally too.
		mk("l2/victim", false, "victim-cache", func(c *hierarchy.Config) {
			c.L2Augment = hierarchy.Augment{Kind: hierarchy.VictimCache, Entries: 4}
		}),
		// Random replacement shares one generator across sets.
		mk("random/l1d", false, "random replacement", func(c *hierarchy.Config) {
			c.L1D = l1(4096, 16, 2)
			c.L1D.Replacement = cache.Random
		}),
	}
}

// TestDifferentialGoldenSuite replays every golden-figure configuration
// shape sharded and sequentially and requires bit-identical results —
// and that the planner's shard-or-fallback decision is the expected one.
func TestDifferentialGoldenSuite(t *testing.T) {
	for _, tc := range goldenCases() {
		benches := tc.benches
		if benches == nil {
			benches = []string{"ccom", "liver"}
		}
		for _, bench := range benches {
			t.Run(tc.name+"/"+bench, func(t *testing.T) {
				tr := diffTrace(t, bench)
				want := replaySequential(t, tc.cfg, tr)
				got, dec := replayShardedN(t, tc.cfg, tr, 4)
				if dec.Sharded() != tc.sharded {
					t.Errorf("decision: sharded=%v (fallback %q), want sharded=%v",
						dec.Sharded(), dec.Fallback, tc.sharded)
				}
				if !tc.sharded && !strings.Contains(dec.Fallback, tc.fallback) {
					t.Errorf("fallback reason %q does not mention %q", dec.Fallback, tc.fallback)
				}
				requireBitIdentical(t, want, got)
			})
		}
	}
}

// TestDifferentialRandomGeometries extends the pin beyond hand-picked
// shapes: seeded random (but deterministic) pure-geometry systems, each
// replayed sharded and sequentially. Only geometry varies — the
// globally-coupled structures are covered by the fallback cases above.
func TestDifferentialRandomGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5ca1e))
	pow2 := func(lo, hi int) int { return 1 << (lo + rng.Intn(hi-lo+1)) }
	repl := []cache.Replacement{cache.LRU, cache.FIFO}
	for i := 0; i < 8; i++ {
		line := pow2(4, 6) // 16..64B
		cfg := hierarchy.Config{
			L1I: cache.Config{Name: "L1I", Size: pow2(10, 14), LineSize: line,
				Assoc: pow2(0, 2), Replacement: repl[rng.Intn(2)]},
			L1D: cache.Config{Name: "L1D", Size: pow2(10, 14), LineSize: line,
				Assoc: pow2(0, 2), Replacement: repl[rng.Intn(2)]},
			L2: cache.Config{Name: "L2", Size: 1 << uint(17+rng.Intn(4)), LineSize: 128,
				Assoc: 1 << uint(rng.Intn(2))},
		}
		shards := 2 + rng.Intn(7)
		bench := workload.Names()[rng.Intn(len(workload.Names()))]
		t.Run(fmt.Sprintf("geom%d/%s/k%d", i, bench, shards), func(t *testing.T) {
			tr := diffTrace(t, bench)
			want := replaySequential(t, cfg, tr)
			got, dec := replayShardedN(t, cfg, tr, shards)
			if !dec.Sharded() {
				// A random geometry may legitimately share no set bits;
				// the differential pin still holds on the fallback path.
				t.Logf("fell back: %s", dec.Fallback)
			}
			requireBitIdentical(t, want, got)
		})
	}
}
