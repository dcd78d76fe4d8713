package sim

import (
	"math"
	"strings"
	"testing"
)

func TestBaselineAndImprovedConfigs(t *testing.T) {
	if _, err := NewSystem(BaselineSystem()); err != nil {
		t.Fatalf("baseline config rejected: %v", err)
	}
	if _, err := NewSystem(ImprovedSystem()); err != nil {
		t.Fatalf("improved config rejected: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{I: Augmentation{MissCacheEntries: 2, VictimCacheEntries: 2}},
		{D: Augmentation{MissCacheEntries: 2, Stream: &StreamOptions{Ways: 1}}},
		{I: Augmentation{MissCacheEntries: -1}},
		{L2VictimEntries: -1},
		{L1I: CacheGeometry{Size: 100}}, // not a power of two
	}
	for i, cfg := range bad {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestManualAccessPath(t *testing.T) {
	sys, err := NewSystem(BaselineSystem())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sys.Ifetch(uint64(0x100000 + i*4))
		if i%2 == 0 {
			sys.Load(uint64(0x800000 + i*8))
		} else {
			sys.Store(uint64(0x900000 + i*8))
		}
	}
	res := sys.Results()
	if res.Instructions != 100 {
		t.Errorf("instructions = %d, want 100", res.Instructions)
	}
	if res.I.Accesses != 100 || res.D.Accesses != 100 {
		t.Errorf("accesses I=%d D=%d, want 100 each", res.I.Accesses, res.D.Accesses)
	}
	if res.TotalTime < res.Instructions {
		t.Error("total time below instruction count")
	}
	if res.PercentOfPotential <= 0 || res.PercentOfPotential > 100 {
		t.Errorf("percent of potential = %v", res.PercentOfPotential)
	}
}

func TestRunBenchmarkBaselineVsImproved(t *testing.T) {
	base, err := RunBenchmark("liver", 0.05, BaselineSystem())
	if err != nil {
		t.Fatal(err)
	}
	improved, err := RunBenchmark("liver", 0.05, ImprovedSystem())
	if err != nil {
		t.Fatal(err)
	}
	if improved.D.FullMisses >= base.D.FullMisses {
		t.Errorf("improved D misses %d not below baseline %d",
			improved.D.FullMisses, base.D.FullMisses)
	}
	if Speedup(base, improved) <= 1 {
		t.Errorf("speedup = %v, want > 1", Speedup(base, improved))
	}
	if improved.D.StreamHits == 0 || improved.D.VictimHits == 0 {
		t.Error("improved system shows no augmentation hits")
	}
	if base.L2DemandAccesses == 0 {
		t.Error("no L2 traffic recorded")
	}
	if improved.L2PrefetchAccesses == 0 {
		t.Error("no prefetch traffic recorded")
	}
}

func TestRunBenchmarkUnknown(t *testing.T) {
	if _, err := RunBenchmark("nope", 1, BaselineSystem()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunBenchmarkRejectsBadScale(t *testing.T) {
	// Zero, negative, NaN, and infinite scales previously produced an
	// empty trace and all-zero Results with no error; they must now be
	// rejected so the zeros cannot be mistaken for measurements.
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := RunBenchmark("liver", scale, BaselineSystem()); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 8 {
		t.Fatalf("Benchmarks() = %v, want six paper benchmarks + strided + ptrchase", names)
	}
	for _, n := range names {
		desc, err := BenchmarkDescription(n)
		if err != nil || desc == "" {
			t.Errorf("BenchmarkDescription(%q) = %q, %v", n, desc, err)
		}
	}
	if _, err := BenchmarkDescription("nope"); err == nil {
		t.Error("unknown description accepted")
	}
}

func TestSpeedupZeroGuard(t *testing.T) {
	if Speedup(Results{TotalTime: 10}, Results{}) != 0 {
		t.Error("speedup against zero time should be 0")
	}
}

func TestExperimentsSurface(t *testing.T) {
	infos := Experiments()
	if len(infos) < 20 {
		t.Fatalf("Experiments() returned %d entries", len(infos))
	}
	out, err := RunExperiment("table1-1", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "WRL Titan") {
		t.Errorf("table1-1 output missing content:\n%s", out)
	}
	if _, err := RunExperiment("nope", 0.05); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestCustomGeometryAndPenalties(t *testing.T) {
	cfg := Config{
		L1D:           CacheGeometry{Size: 8192, LineSize: 32},
		L2:            CacheGeometry{Size: 1 << 18, LineSize: 256},
		L1MissPenalty: 10,
		L2MissPenalty: 100,
	}
	res, err := RunBenchmark("met", 0.02, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.D.Accesses == 0 {
		t.Error("no data accesses")
	}
}

func TestStridedWorkloadWithStrideBuffers(t *testing.T) {
	plain, err := RunBenchmark("strided", 0.05, Config{
		D: Augmentation{Stream: &StreamOptions{Ways: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	stride, err := RunBenchmark("strided", 0.05, Config{
		D: Augmentation{Stream: &StreamOptions{Ways: 4, DetectStride: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stride.D.FullMisses >= plain.D.FullMisses {
		t.Errorf("stride detection did not help: %d vs %d",
			stride.D.FullMisses, plain.D.FullMisses)
	}
}

func TestL2StreamOption(t *testing.T) {
	res, err := RunBenchmark("linpack", 0.05, Config{
		L2:       CacheGeometry{Size: 64 << 10, LineSize: 128},
		L2Stream: &StreamOptions{Ways: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunBenchmark("linpack", 0.05, Config{
		L2: CacheGeometry{Size: 64 << 10, LineSize: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.L2DemandMisses >= base.L2DemandMisses {
		t.Errorf("L2 stream buffers did not reduce misses: %d vs %d",
			res.L2DemandMisses, base.L2DemandMisses)
	}
}

func TestL2StreamWithVictim(t *testing.T) {
	// Combined L2 victim cache + stream buffers through the facade.
	if _, err := NewSystem(Config{
		L2VictimEntries: 4,
		L2Stream:        &StreamOptions{Ways: 2},
	}); err != nil {
		t.Fatalf("combined L2 augmentation rejected: %v", err)
	}
}
