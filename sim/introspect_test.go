package sim

import (
	"context"
	"testing"

	"jouppi/internal/introspect"
	"jouppi/internal/memtrace"
	"jouppi/internal/shardreplay"
	"jouppi/internal/workload"
)

// fullIntrospection enables every probe view (classification included,
// since equivalence must hold even for the most intrusive options).
var fullIntrospection = Introspection{
	Window:    1 << 12,
	Heatmap:   true,
	MissEvery: 8,
	MissCap:   256,
	Classify:  true,
}

// TestIntrospectionEquivalence pins the tentpole guarantee at the public
// API: an introspected replay returns bit-identical Results.
func TestIntrospectionEquivalence(t *testing.T) {
	for name, cfg := range map[string]Config{
		"baseline": BaselineSystem(),
		"improved": ImprovedSystem(),
	} {
		t.Run(name, func(t *testing.T) {
			plain, err := RunBenchmark("ccom", 0.05, cfg)
			if err != nil {
				t.Fatal(err)
			}
			probed, probe, err := RunBenchmarkIntrospected(context.Background(), "ccom", 0.05, cfg, fullIntrospection)
			if err != nil {
				t.Fatal(err)
			}
			if plain != probed {
				t.Errorf("introspection changed simulated numbers:\nplain  %+v\nprobed %+v", plain, probed)
			}
			if probe.I.Accesses()+probe.D.Accesses() != plain.I.Accesses+plain.D.Accesses {
				t.Error("probe did not see every access")
			}
			if len(probe.D.Windows()) == 0 || probe.D.Heat() == nil || len(probe.D.Events()) == 0 {
				t.Error("probe views empty after an introspected replay")
			}
		})
	}
}

// replayManyProbed is ReplayManyContext's pass (one generated stream,
// one fan-out consumer per configuration) with one introspection probe
// set attached to every consumer system.
func replayManyProbed(name string, scale float64, cfgs []Config, o Introspection) ([]Results, []*introspect.SystemProbe, error) {
	b, err := benchmark(name)
	if err != nil {
		return nil, nil, err
	}
	hs := make([]*shardreplay.Hierarchy, len(cfgs))
	probes := make([]*introspect.SystemProbe, len(cfgs))
	for i, cfg := range cfgs {
		hc, err := cfg.toHierarchy()
		if err != nil {
			return nil, nil, err
		}
		if hs[i], err = shardreplay.NewHierarchy(hc, 1); err != nil {
			return nil, nil, err
		}
		probes[i] = introspect.Attach(hs[i].Systems()[0], o.toOptions())
	}
	src := workload.NewSource(b, scale)
	defer src.Close()
	counting := memtrace.NewCountingSource(src)
	if err := shardreplay.New(shardreplay.Config{}).ReplayHierarchies(context.Background(), counting, hs...); err != nil {
		return nil, nil, err
	}
	results := make([]Results, len(hs))
	for i, h := range hs {
		results[i] = toResults(h.Results(counting.Instructions()))
	}
	return results, probes, nil
}

// TestIntrospectionFanoutBitIdentical pins fan-out safety: a fan-out
// replay with per-consumer probes produces the same Results as
// sequential replays, and each consumer's probe matches the probe of a
// standalone introspected replay of the same configuration.
func TestIntrospectionFanoutBitIdentical(t *testing.T) {
	cfgs := []Config{
		BaselineSystem(),
		{D: Augmentation{VictimCacheEntries: 4}},
	}
	o := Introspection{Window: 1 << 12, Heatmap: true, MissEvery: 8}
	results, probes, err := replayManyProbed("ccom", 0.05, cfgs, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cfgs) || len(probes) != len(cfgs) {
		t.Fatalf("got %d results / %d probes for %d configs", len(results), len(probes), len(cfgs))
	}
	for i, cfg := range cfgs {
		seq, seqProbe, err := RunBenchmarkIntrospected(context.Background(), "ccom", 0.05, cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != seq {
			t.Errorf("config %d: fan-out results differ from sequential:\nfan-out    %+v\nsequential %+v", i, results[i], seq)
		}
		fw, sw := probes[i].D.Windows(), seqProbe.D.Windows()
		if len(fw) != len(sw) {
			t.Fatalf("config %d: %d fan-out windows vs %d sequential", i, len(fw), len(sw))
		}
		for w := range fw {
			if fw[w] != sw[w] {
				t.Errorf("config %d window %d differs under fan-out:\n%+v\n%+v", i, w, fw[w], sw[w])
			}
		}
		fh, sh := probes[i].D.Heat(), seqProbe.D.Heat()
		for s := range fh {
			if fh[s] != sh[s] {
				t.Errorf("config %d set %d heat differs under fan-out: %+v vs %+v", i, s, fh[s], sh[s])
				break
			}
		}
	}
	// The victim cache must actually change what the probes see (the
	// two consumers are independent).
	if probes[0].D.Windows()[0] == probes[1].D.Windows()[0] {
		t.Error("baseline and victim-cache probes identical — consumers not independent")
	}
}

func TestIntrospectionErrors(t *testing.T) {
	if _, _, err := RunBenchmarkIntrospected(context.Background(), "ccom", 0, Config{}, Introspection{}); err == nil {
		t.Error("zero scale must fail")
	}
	if _, _, err := RunBenchmarkIntrospected(context.Background(), "nope", 1, Config{}, Introspection{}); err == nil {
		t.Error("unknown benchmark must fail")
	}
	bad := Config{I: Augmentation{MissCacheEntries: 2, VictimCacheEntries: 2}}
	if _, _, err := RunBenchmarkIntrospected(context.Background(), "ccom", 1, bad, Introspection{}); err == nil {
		t.Error("invalid config must fail")
	}
}

func TestIntrospectionCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RunBenchmarkIntrospected(ctx, "ccom", 0.05, Config{}, Introspection{}); err == nil {
		t.Error("cancelled context must abort the introspected replay")
	}
}
