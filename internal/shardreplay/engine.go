package shardreplay

import (
	"context"
	"errors"
	"fmt"

	"jouppi/internal/fanout"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
)

// ErrNilShard reports a Replay handed a nil shard sink.
var ErrNilShard = errors.New("shardreplay: nil shard sink")

// Config sizes the fan-out engine a sharded pass runs on. The zero
// value selects fan-out's defaults, except that a pass with shards on it
// keeps a smaller window (shardRing) when Ring is zero.
type Config = fanout.Config

// shardRing is the per-consumer chunk window of a pass with shards on
// it. Every shard holds each broadcast chunk until it has filtered it,
// so the chunks a pass allocates grow with the window: with fan-out's
// default of 8 a two-shard file replay allocated about a fifth more per
// access than with 4, and 4 cost no throughput.
const shardRing = 4

// Engine replays trace passes partitioned across shards. A shard is one
// fan-out consumer: it walks the shared broadcast chunks and keeps only
// the records its partition owns, so the fan-out engine's backpressure,
// cancellation and panic relay (*fanout.ConsumerPanic, carrying the
// shard goroutine's own stack) are the sharded replay's too. The zero
// value is usable. An Engine is reusable across Replay calls but not
// concurrently.
type Engine struct {
	cfg Config
	reg *telemetry.Registry
}

// New returns an engine sized by cfg.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// AttachTelemetry publishes the fan-out engine's metrics on reg
// (fanout_chunks_total, fanout_records_total, fanout_consumers,
// fanout_broadcast_depth, fanout_consumer_lag_*); a shard counts as one
// consumer. A nil registry detaches.
func (e *Engine) AttachTelemetry(reg *telemetry.Registry) { e.reg = reg }

// Replay pulls every record from src exactly once and delivers it to
// the shard p assigns it to, preserving the stream's relative order
// within each shard. It returns ctx's error if the context is cancelled
// mid-stream (shards may then have seen a prefix of their sub-streams),
// and re-panics a *fanout.ConsumerPanic if any shard sink panics. With a
// single shard the replay runs inline on the caller's goroutine.
func (e *Engine) Replay(ctx context.Context, src memtrace.Source, p Partition, sinks []memtrace.Sink) error {
	for _, s := range sinks {
		if s == nil {
			return ErrNilShard
		}
	}
	if len(sinks) > 1 && p.Shards() != len(sinks) {
		return fmt.Errorf("shardreplay: partition routes to %d shards, got %d sinks", p.Shards(), len(sinks))
	}
	return e.replay(ctx, src, consumers(p, sinks))
}

// ReplayHierarchies pulls src dry once through every hierarchy: one
// fan-out pass whose consumers are every hierarchy's shards (configs ×
// shards), or its one replica on the fallback path. The shard
// goroutines are done at return, so each system's telemetry remainder
// is flushed from the caller's goroutine and the registry is exact.
func (e *Engine) ReplayHierarchies(ctx context.Context, src memtrace.Source, hs ...*Hierarchy) error {
	var cs []fanout.Consumer
	for _, h := range hs {
		sinks := make([]memtrace.Sink, len(h.systems))
		for i, s := range h.systems {
			sinks[i] = s
		}
		cs = append(cs, consumers(h.part, sinks)...)
	}
	err := e.replay(ctx, src, cs)
	for _, h := range hs {
		for _, s := range h.systems {
			s.FlushTelemetry()
		}
	}
	return err
}

// consumers wraps sinks as fan-out consumers: a lone sink sees the whole
// stream, and each of several sees only the records p routes to it.
func consumers(p Partition, sinks []memtrace.Sink) []fanout.Consumer {
	if len(sinks) == 1 {
		return []fanout.Consumer{fanout.Sink(sinks[0])}
	}
	cs := make([]fanout.Consumer, len(sinks))
	for i, s := range sinks {
		cs[i] = shard{p: p, i: i, sink: s}
	}
	return cs
}

// replay runs one fan-out pass, in the smaller shard window when any
// consumer is a shard.
func (e *Engine) replay(ctx context.Context, src memtrace.Source, cs []fanout.Consumer) error {
	cfg := e.cfg
	if cfg.Ring <= 0 {
		for _, c := range cs {
			if _, ok := c.(shard); ok {
				cfg.Ring = shardRing
				break
			}
		}
	}
	eng := fanout.New(cfg)
	eng.AttachTelemetry(e.reg)
	return eng.Replay(ctx, src, cs...)
}

// shard is one filtered fan-out consumer: it replays, in order, the
// records of each chunk that its partition slot owns.
type shard struct {
	p    Partition
	i    int
	sink memtrace.Sink
}

func (s shard) Consume(chunk []memtrace.Access) {
	for _, a := range chunk {
		if s.p.ShardOf(a.Addr) == s.i {
			s.sink.Access(a)
		}
	}
}
