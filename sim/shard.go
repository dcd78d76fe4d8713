package sim

import (
	"context"

	"jouppi/internal/memtrace"
	"jouppi/internal/shardreplay"
)

// ShardInfo reports how a sharded replay actually ran: the requested
// and effective shard counts, and — when the configuration forced the
// sequential fallback — the reason. Results are bit-identical either
// way; the info only tells the caller which cores did the work.
type ShardInfo struct {
	Requested int
	Shards    int
	// Fallback is the human-readable reason the replay ran sequentially
	// ("" when it sharded, or when one shard was requested). Victim and
	// miss caches, stream buffers, random replacement and geometries
	// with no common set-index bits cannot shard — see the fallback
	// matrix in DESIGN.md §13.
	Fallback string
}

// Sharded reports whether the replay ran on more than one shard.
func (i ShardInfo) Sharded() bool { return i.Shards > 1 }

func toShardInfo(d shardreplay.Decision) ShardInfo {
	return ShardInfo{Requested: d.Requested, Shards: d.Shards, Fallback: d.Fallback}
}

// ShardedSystem is a simulated memory system replayed across shards,
// each a fan-out consumer on its own goroutine: addresses are
// partitioned by a bit-field inside every cache's set index, so each
// shard owns a disjoint slice of the sets and the merged counters are
// bit-identical to a sequential replay. Configurations with
// globally-coupled structures run sequentially instead (Info reports
// why).
type ShardedSystem struct {
	h            *shardreplay.Hierarchy
	instructions uint64
}

// NewShardedSystem builds a system from cfg that replays on up to the
// given number of shards.
func NewShardedSystem(cfg Config, shards int) (*ShardedSystem, error) {
	hc, err := cfg.toHierarchy()
	if err != nil {
		return nil, err
	}
	h, err := shardreplay.NewHierarchy(hc, shards)
	if err != nil {
		return nil, err
	}
	return &ShardedSystem{h: h}, nil
}

// Info reports the effective shard count and any fallback reason.
func (s *ShardedSystem) Info() ShardInfo { return toShardInfo(s.h.Decision()) }

// ReplaySource pulls src dry through the sharded system, accumulating
// the instruction count for Results. It returns ctx's error if the
// replay is cancelled mid-stream.
func (s *ShardedSystem) ReplaySource(ctx context.Context, src memtrace.Source) error {
	counting := memtrace.NewCountingSource(src)
	err := s.h.Replay(ctx, counting)
	s.instructions += counting.Instructions()
	return err
}

// Results merges the per-shard counters and returns the run's results.
func (s *ShardedSystem) Results() Results {
	return toResults(s.h.Results(s.instructions))
}
