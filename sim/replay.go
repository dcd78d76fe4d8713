package sim

import (
	"context"
	"fmt"

	"jouppi/internal/memtrace"
	"jouppi/internal/shardreplay"
	"jouppi/internal/telemetry"
	"jouppi/internal/trace"
	"jouppi/internal/workload"
)

// ReplayMany generates the named workload once and replays that single
// trace pass through a system built from each configuration, returning
// one Results per configuration in order. The numbers are bit-identical
// to running RunBenchmark once per configuration — the trace production
// cost is simply paid once instead of len(cfgs) times, which is where
// per-config sweeps spend most of their wall-clock.
func ReplayMany(name string, scale float64, cfgs []Config) ([]Results, error) {
	return ReplayManyContext(context.Background(), name, scale, 0, nil, cfgs)
}

// ReplayManyContext is ReplayMany with sharding, cooperative
// cancellation and optional telemetry. Each configuration replays on up
// to shards set-partitioned shards (NewShardedSystem's plan, so
// configurations that cannot shard fall back to one), and the one
// generated stream feeds every configuration's shards in the same pass.
// Results are bit-identical at every shard count. The replay stops
// early with ctx's error once the context is done, and a non-nil
// registry receives the fan-out engine's metrics (fanout_chunks_total,
// fanout_records_total, fanout_consumers, fanout_broadcast_depth,
// fanout_consumer_lag_*), where every shard counts as one consumer.
func ReplayManyContext(ctx context.Context, name string, scale float64, shards int,
	reg *telemetry.Registry, cfgs []Config) ([]Results, error) {
	if err := checkScale(scale); err != nil {
		return nil, err
	}
	b, err := benchmark(name)
	if err != nil {
		return nil, err
	}
	hs := make([]*shardreplay.Hierarchy, len(cfgs))
	for i, cfg := range cfgs {
		hc, err := cfg.toHierarchy()
		if err == nil {
			hs[i], err = shardreplay.NewHierarchy(hc, shards)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: config %d: %w", i, err)
		}
	}

	// The whole fan-out pass is one "replay" span: trace decode/production
	// and broadcast are a single stage of a job's wall-clock, and the
	// record count lands as an attribute at close. Span granularity is
	// per replay, never per access, so tracing stays off the hot path.
	ctx, rsp := trace.Start(ctx, "replay", trace.String("benchmark", name),
		trace.Int("configs", len(cfgs)), trace.Int("shards", shards))
	defer rsp.End()

	// Instructions are counted once on the producer side; every consumer
	// sees the same stream, so they all share the count.
	src := workload.NewSource(b, scale)
	defer src.Close()
	counting := memtrace.NewCountingSource(src)
	eng := shardreplay.New(shardreplay.Config{})
	eng.AttachTelemetry(reg)
	if err := eng.ReplayHierarchies(ctx, counting, hs...); err != nil {
		return nil, err
	}
	out := make([]Results, len(hs))
	for i, h := range hs {
		out[i] = toResults(h.Results(counting.Instructions()))
	}
	rsp.SetAttr("records", fmt.Sprint(counting.Total()))
	return out, nil
}
