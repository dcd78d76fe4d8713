// Package shardreplay parallelizes a single-configuration trace replay
// by partitioning the address stream across K shard simulators, each
// owning a disjoint slice of every cache's sets.
//
// Fan-out (the fanout package) parallelizes *across* configurations: a
// one-configuration run — the common cachesimd job shape — still leaves
// all but one core idle. Sharded replay splits that one run. The trick
// is choosing a partition that the caches cannot see: addresses are
// routed by a bit-field lying inside the set-index field of every cache
// in the hierarchy, so each cache set belongs to exactly one shard, and
// the accesses a shard receives are exactly the accesses that touch its
// sets, in their original relative order. LRU/FIFO replacement decides
// victims from within-set order alone, so every probe, fill, eviction
// and writeback resolves exactly as it would have sequentially, and the
// per-shard stats sum to the sequential stats — bit-identical results,
// pinned by the differential and metamorphic tests in this package.
//
// Structures whose behaviour couples sets globally break the partition
// argument: miss caches, victim caches and stream buffers are shared
// fully-associative structures ordered by the global access stream, a
// Random replacement policy draws from one per-cache generator, and the
// 3C classifier keeps a global LRU shadow. Configurations using them
// are routed through a sequential fallback chosen automatically by
// config analysis (PlanHierarchy/PlanCache) — "bit-identical or loudly
// fall back" is the package contract, never "almost right in parallel".
package shardreplay

import (
	"fmt"
	"math/bits"

	"jouppi/internal/cache"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
)

// Partition routes addresses to shards by a bit-field common to every
// cache's set index. The zero value is unusable; build one from a
// sharded Decision.
type Partition struct {
	shift uint
	mask  uint64
	k     uint64
	m     uint64 // ⌈2^64/k⌉, the reciprocal ShardOf multiplies by
}

// Shards returns the number of shards the partition routes to.
func (p Partition) Shards() int { return int(p.k) }

// ShardOf returns the shard owning addr's sets. Addresses with equal
// common-field bits land in the same shard; addresses with different
// common-field bits can never share a set in any cache of the plan.
//
// The shard is the field value modulo the shard count, computed by
// multiplication (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019) because every shard consumer evaluates it on every
// record. It equals v % k exactly for fields below 2^32; wider fields,
// which only caches of more than 2^32 sets have, still map each field
// value to one shard in [0, k), which is all set ownership needs.
func (p Partition) ShardOf(addr memtrace.Addr) int {
	hi, _ := bits.Mul64(p.m*((uint64(addr)>>p.shift)&p.mask), p.k)
	return int(hi)
}

// Decision is the outcome of planning a sharded replay for one
// configuration: how many shards to actually run and, when the answer
// is "one", why the configuration forced the sequential fallback.
type Decision struct {
	// Requested is the caller's shard count; Shards the effective one.
	// Shards is Requested capped at the number of distinct common-field
	// values, or 1 when the configuration cannot shard.
	Requested int
	Shards    int
	// FieldShift/FieldWidth locate the partition bit-field: bits
	// [FieldShift, FieldShift+FieldWidth) of the address, which lie
	// inside every cache's set index. Zero when not sharded.
	FieldShift uint
	FieldWidth uint
	// Fallback is the human-readable reason the plan fell back to one
	// shard ("" when sharded, or when the caller asked for ≤1 shard).
	Fallback string
}

// Sharded reports whether the plan runs more than one shard.
func (d Decision) Sharded() bool { return d.Shards > 1 }

// Partition builds the address partition the decision describes. It
// panics on a non-sharded decision — the fallback path has no partition.
func (d Decision) Partition() Partition {
	if !d.Sharded() {
		panic("shardreplay: Partition on a non-sharded Decision")
	}
	k := uint64(d.Shards)
	return Partition{shift: d.FieldShift, mask: 1<<d.FieldWidth - 1, k: k, m: ^uint64(0)/k + 1}
}

// log2 of a positive power of two.
func log2(v int) uint { return uint(bits.TrailingZeros(uint(v))) }

// setField returns the address bit-range [lo, hi) forming cc's set
// index: the bits above the line offset that select the set.
func setField(cc cache.Config) (lo, hi uint) {
	lo = log2(cc.LineSize)
	return lo, lo + log2(cc.Sets())
}

// commonField intersects the set-index fields of all given caches. A
// width of zero means no bit of the address selects a set in every
// cache at once (for instance, a fully-associative cache has an empty
// set field).
func commonField(cfgs ...cache.Config) (shift, width uint) {
	lo, hi := setField(cfgs[0])
	for _, cc := range cfgs[1:] {
		clo, chi := setField(cc)
		if clo > lo {
			lo = clo
		}
		if chi < hi {
			hi = chi
		}
	}
	if hi <= lo {
		return 0, 0
	}
	return lo, hi - lo
}

// randomFallback reports the fallback reason a Random replacement
// policy forces, or "" when none of the caches uses one. Random victim
// selection draws from one generator per cache shared by all sets, so
// the sequence of draws — and therefore every randomly-chosen victim —
// depends on the global interleaving of fills across sets.
func randomFallback(cfgs ...cache.Config) string {
	for _, cc := range cfgs {
		if cc.Replacement == cache.Random {
			return fmt.Sprintf("%s uses random replacement (one generator shared across sets)", cc.Name)
		}
	}
	return ""
}

// auxFallback reports the fallback reason an augmentation forces.
func auxFallback(side string, aug hierarchy.Augment) string {
	if aug.Kind == hierarchy.None {
		return ""
	}
	return fmt.Sprintf("%s %s is a shared fully-associative structure ordered by the global access stream", side, aug.Kind)
}

// PlanHierarchy analyses a two-level system configuration and decides
// how a requested shard count can actually run. The decision falls back
// to one shard when any globally-coupled structure is configured (see
// the package comment and the fallback matrix in DESIGN.md §13) or when
// the three caches share no set-index bits.
func PlanHierarchy(cfg hierarchy.Config, requested int) Decision {
	d := Decision{Requested: requested, Shards: 1}
	if requested <= 1 {
		return d
	}
	cfg = cfg.Defaulted()
	for _, reason := range []string{
		auxFallback("L1I", cfg.IAugment),
		auxFallback("L1D", cfg.DAugment),
		auxFallback("L2", cfg.L2Augment),
	} {
		if reason != "" {
			d.Fallback = reason
			return d
		}
	}
	if reason := randomFallback(cfg.L1I, cfg.L1D, cfg.L2); reason != "" {
		d.Fallback = reason
		return d
	}
	shift, width := commonField(cfg.L1I, cfg.L1D, cfg.L2)
	if width == 0 {
		d.Fallback = "L1I, L1D and L2 share no set-index address bits"
		return d
	}
	return d.sharded(shift, width)
}

// PlanCache analyses a single stand-alone cache front-end (cachesim's
// shape) the same way. Globally-coupled structures the planner cannot
// see from the cache geometry — augmentations on the front-end, a 3C
// shadow classifier, stream-ordered observers — are the caller's to
// declare: each non-empty string in coupled is a fallback reason, and
// the first one wins.
func PlanCache(cc cache.Config, requested int, coupled ...string) Decision {
	d := Decision{Requested: requested, Shards: 1}
	if requested <= 1 {
		return d
	}
	for _, reason := range coupled {
		if reason != "" {
			d.Fallback = reason
			return d
		}
	}
	if reason := randomFallback(cc); reason != "" {
		d.Fallback = reason
		return d
	}
	shift, width := commonField(cc)
	if width == 0 {
		d.Fallback = fmt.Sprintf("%s has a single set (no set-index address bits)", cc.Name)
		return d
	}
	return d.sharded(shift, width)
}

// sharded finalizes a plan that can shard: the effective count is the
// request capped at the number of distinct common-field values.
func (d Decision) sharded(shift, width uint) Decision {
	d.FieldShift, d.FieldWidth = shift, width
	d.Shards = d.Requested
	if m := 1 << width; d.Shards > m {
		d.Shards = m
	}
	return d
}
