// Package core implements the paper's hardware contributions: miss caches
// (§3.1), victim caches (§3.2), single- and multi-way stream buffers
// (§4.1–4.2), and Front, the one front-end that attaches them to a
// first-level direct-mapped cache. It also implements the extensions the
// paper lists as future work: quasi-sequential lookup and
// stride-predicting stream buffers.
//
// A FrontEnd models one first-level cache (instruction or data) plus its
// augmentation. Every access is classified as an L1 hit, an augmentation
// hit (one-cycle penalty instead of a full miss), or a full miss that
// fetches from the next level. Front-ends keep a cycle clock — one cycle
// per access plus the stall cycles of misses — so that structures with
// fill latency (stream buffers) can model line availability.
package core

import (
	"fmt"

	"jouppi/internal/cache"
)

// Fetcher receives line-granularity fetch requests destined for the next
// memory level. prefetch distinguishes stream-buffer prefetches from
// demand fetches. lineAddr is in units of the front-end's L1 line size.
type Fetcher func(lineAddr uint64, prefetch bool)

// Timing holds the cycle costs a front-end charges. All values are in
// cycles, which the performance model equates with instruction times
// (paper §2: penalties of 24 and 320 instruction times).
type Timing struct {
	// MissPenalty is the cost of a demand fetch from the next level
	// (paper baseline: 24).
	MissPenalty int
	// AuxPenalty is the cost of a hit in a miss cache, victim cache, or
	// ready stream-buffer entry (paper: 1).
	AuxPenalty int
	// FillLatency is the completion latency of a stream-buffer prefetch.
	// Zero means "same as MissPenalty".
	FillLatency int
	// FillInterval is the pipelined next-level port's issue interval: a
	// new prefetch request can be issued every FillInterval cycles
	// (paper example: 4).
	FillInterval int
}

// DefaultTiming returns the paper's baseline first-level timing.
func DefaultTiming() Timing {
	return Timing{MissPenalty: 24, AuxPenalty: 1, FillLatency: 24, FillInterval: 4}
}

func (t Timing) withDefaults() Timing {
	if t.MissPenalty == 0 {
		t.MissPenalty = 24
	}
	if t.AuxPenalty == 0 {
		t.AuxPenalty = 1
	}
	if t.FillLatency == 0 {
		t.FillLatency = t.MissPenalty
	}
	if t.FillInterval == 0 {
		t.FillInterval = 4
	}
	return t
}

// ServedBy identifies which structure satisfied an access, so observers
// (telemetry, tracing) can attribute hits without re-deriving them from
// stats deltas.
type ServedBy uint8

// The possible access servers, in probe order.
const (
	// ServedL1 is a plain first-level hit.
	ServedL1 ServedBy = iota
	// ServedMissCache / ServedVictim / ServedStream are augmentation hits
	// in the respective structure.
	ServedMissCache
	ServedVictim
	ServedStream
	// ServedMemory is a full miss: a demand fetch from the next level.
	ServedMemory
)

// String returns the server's name.
func (s ServedBy) String() string {
	switch s {
	case ServedL1:
		return "l1"
	case ServedMissCache:
		return "miss-cache"
	case ServedVictim:
		return "victim-cache"
	case ServedStream:
		return "stream-buffer"
	case ServedMemory:
		return "memory"
	default:
		return fmt.Sprintf("ServedBy(%d)", uint8(s))
	}
}

// Result describes how a single access resolved.
type Result struct {
	// L1Hit is true when the first-level cache itself hit.
	L1Hit bool
	// AuxHit is true when an augmentation satisfied an L1 miss.
	AuxHit bool
	// Stall is the number of stall cycles charged beyond the single
	// issue cycle (0 on an L1 hit).
	Stall int
	// Served names the structure that satisfied the access (the L1
	// itself, one of the augmentations, or the next memory level).
	Served ServedBy
}

// FullMiss reports whether the access required a demand fetch from the
// next level.
func (r Result) FullMiss() bool { return !r.L1Hit && !r.AuxHit }

// Stats accumulates front-end activity.
type Stats struct {
	Accesses uint64
	L1Hits   uint64
	L1Misses uint64

	// AuxHits counts L1 misses satisfied by any augmentation.
	AuxHits uint64
	// VictimHits / MissCacheHits / StreamHits break AuxHits down by
	// which structure satisfied the access.
	VictimHits    uint64
	MissCacheHits uint64
	StreamHits    uint64
	// StreamInFlightHits counts the subset of StreamHits whose line was
	// still in flight and stalled the access for part of the fill
	// latency.
	StreamInFlightHits uint64
	// OverlapHits counts victim-cache hits where a stream buffer also
	// held the requested line (the paper's §5 overlap statistic).
	OverlapHits uint64

	// Fetches counts demand line fetches from the next level.
	Fetches uint64
	// PrefetchIssued counts stream-buffer prefetch requests sent to the
	// next level; PrefetchUsed counts prefetched lines that satisfied a
	// subsequent access.
	PrefetchIssued uint64
	PrefetchUsed   uint64

	// Writebacks counts dirty lines pushed down from L1 or an
	// augmentation structure.
	Writebacks uint64

	// StallCycles is the total stall time charged (aux penalties, full
	// miss penalties, in-flight waits).
	StallCycles uint64
}

// FullMisses returns the number of accesses that required a demand fetch:
// L1 misses not covered by any augmentation.
func (s Stats) FullMisses() uint64 { return s.L1Misses - s.AuxHits }

// Add accumulates other into s. Every field is a plain event count, so
// adding the stats of replays over disjoint parts of a trace yields
// exactly the stats of one replay over the whole trace — the property
// the sharded-replay merge relies on.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.L1Hits += other.L1Hits
	s.L1Misses += other.L1Misses
	s.AuxHits += other.AuxHits
	s.VictimHits += other.VictimHits
	s.MissCacheHits += other.MissCacheHits
	s.StreamHits += other.StreamHits
	s.StreamInFlightHits += other.StreamInFlightHits
	s.OverlapHits += other.OverlapHits
	s.Fetches += other.Fetches
	s.PrefetchIssued += other.PrefetchIssued
	s.PrefetchUsed += other.PrefetchUsed
	s.Writebacks += other.Writebacks
	s.StallCycles += other.StallCycles
}

// MissRate returns the effective miss rate after augmentation: full misses
// per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.FullMisses()) / float64(s.Accesses)
}

// RawMissRate returns the L1 miss rate before augmentation credit.
func (s Stats) RawMissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(s.Accesses)
}

// Cycles returns the total cycle count: one per access plus stalls.
func (s Stats) Cycles() uint64 { return s.Accesses + s.StallCycles }

// FrontEnd is a first-level cache with optional augmentation hardware.
type FrontEnd interface {
	// Access performs one reference. write marks stores.
	Access(addr uint64, write bool) Result
	// Stats returns accumulated counters.
	Stats() Stats
	// Cache exposes the underlying L1 array (for inspection and
	// invariant checking in tests).
	Cache() *cache.Cache
	// Name identifies the configuration for reports.
	Name() string
}

// shape records which constructor built a Front. It decides the
// auxiliary buffer's policy (a miss cache keeps a copy of each missed
// line, a victim cache takes the lines L1 displaces) and the report name.
type shape uint8

const (
	baselineShape shape = iota
	missCacheShape
	victimCacheShape
	streamShape
	combinedShape
)

// Front is the paper's first-level front-end: a first-level cache with
// an optional small fully-associative buffer — the §3.1 miss cache or
// the §3.2 victim cache — and optional §4 stream buffers. §5's improved
// system is a victim cache and stream buffers at once. The constructors
// NewBaseline, NewMissCache, NewVictimCache, NewStreamBuffer and
// NewCombined build its shapes.
//
// An L1 miss probes the auxiliary buffer first, then the stream buffers,
// and only then fetches from the next level:
//   - A miss-cache hit reloads L1 in one cycle; the line stays in the
//     miss cache, which therefore duplicates L1 lines. A full miss puts
//     the fetched line in both.
//   - A victim-cache hit swaps the line with L1's displaced line. Every
//     line L1 displaces — by a swap, a stream-buffer hit or a demand
//     fill — drops into the victim cache, so no line is ever in both.
//   - A stream-buffer hit moves the prefetched line into L1 (one cycle
//     plus any fill still in flight). A full miss restarts the least
//     recently used buffer after the missed line.
type Front struct {
	l1        *cache.Cache
	set       *streamSet // nil without stream buffers
	fetch     Fetcher
	timing    Timing
	stats     Stats
	now       uint64
	aux       assocBuf // the miss or victim cache; no entries when absent
	shape     shape
	writeBack bool
	streamCfg StreamConfig // the stream configuration Name reports
}

func newFront(l1 *cache.Cache, sh shape, entries int, fetch Fetcher, timing Timing) *Front {
	return &Front{
		l1:        l1,
		fetch:     fetch,
		timing:    timing.withDefaults(),
		aux:       newAssocBuf(entries),
		shape:     sh,
		writeBack: l1.Config().WritePolicy == cache.WriteBack,
	}
}

// NewBaseline wraps l1 as an unaugmented front-end. fetch may be nil when
// next-level traffic is not modelled.
func NewBaseline(l1 *cache.Cache, fetch Fetcher, timing Timing) *Front {
	return newFront(l1, baselineShape, 0, fetch, timing)
}

// NewMissCache builds a §3.1 miss-cache front-end with the given number
// of fully-associative entries. entries may be 0, degenerating to a
// baseline.
func NewMissCache(l1 *cache.Cache, entries int, fetch Fetcher, timing Timing) *Front {
	if entries < 0 {
		panic(fmt.Sprintf("core: negative miss cache size %d", entries))
	}
	return newFront(l1, missCacheShape, entries, fetch, timing)
}

// NewVictimCache builds a §3.2 victim-cache front-end with the given
// number of fully-associative entries. entries may be 0, degenerating to
// a baseline.
func NewVictimCache(l1 *cache.Cache, entries int, fetch Fetcher, timing Timing) *Front {
	if entries < 0 {
		panic(fmt.Sprintf("core: negative victim cache size %d", entries))
	}
	return newFront(l1, victimCacheShape, entries, fetch, timing)
}

// NewStreamBuffer builds a §4 stream-buffer front-end. Zero Ways and
// Depth take their defaults; negative values panic.
func NewStreamBuffer(l1 *cache.Cache, cfg StreamConfig, fetch Fetcher, timing Timing) *Front {
	f := newFront(l1, streamShape, 0, fetch, timing)
	f.set = newStreamSet(cfg, fetch, f.timing)
	f.streamCfg = f.set.cfg
	return f
}

// NewCombined builds the §5 front-end: a victim cache and stream buffers.
// victimEntries may be zero (no victim cache); streamCfg.Ways may be zero
// (no stream buffers). The paper's improved system puts a 4-entry victim
// cache and a 4-way stream buffer on the data cache and a single stream
// buffer on the instruction cache.
func NewCombined(l1 *cache.Cache, victimEntries int, streamCfg StreamConfig, fetch Fetcher, timing Timing) *Front {
	if victimEntries < 0 {
		panic(fmt.Sprintf("core: negative victim cache size %d", victimEntries))
	}
	f := newFront(l1, combinedShape, victimEntries, fetch, timing)
	f.streamCfg = streamCfg
	if streamCfg.Ways > 0 {
		f.set = newStreamSet(streamCfg, fetch, f.timing)
		f.streamCfg = f.set.cfg
	}
	return f
}

// Access implements FrontEnd.
func (f *Front) Access(addr uint64, write bool) Result {
	f.stats.Accesses++
	f.now++
	if f.l1.Probe(addr, write) {
		f.stats.L1Hits++
		return Result{L1Hit: true}
	}
	f.stats.L1Misses++
	la := f.l1.LineAddr(addr)

	// 1. The miss or victim cache. Only the shapes that have one give
	// it entries.
	if len(f.aux.entries) > 0 {
		if f.shape == missCacheShape {
			if hit, _ := f.aux.probe(la); hit {
				f.stats.MissCacheHits++
				f.install(addr, write, false)
				return f.auxHit(f.timing.AuxPenalty, ServedMissCache)
			}
		} else if present, dirty := f.aux.remove(la); present {
			f.stats.VictimHits++
			if f.set != nil && f.set.contains(la) {
				f.stats.OverlapHits++
			}
			f.install(addr, write, dirty)
			return f.auxHit(f.timing.AuxPenalty, ServedVictim)
		}
	}

	// 2. The stream buffers.
	if f.set != nil {
		if hit, inFlight, stall := f.set.probe(la, f.now); hit {
			f.stats.StreamHits++
			f.stats.PrefetchUsed++
			if inFlight {
				f.stats.StreamInFlightHits++
			}
			f.install(addr, write, false)
			f.stats.PrefetchIssued = f.set.issued
			return f.auxHit(stall, ServedStream)
		}
	}

	// 3. Full miss: demand fetch, fill, then the miss-cache copy and a
	// fresh stream after the missed line.
	f.stats.Fetches++
	if f.fetch != nil {
		f.fetch(la, false)
	}
	f.install(addr, write, false)
	if f.shape == missCacheShape {
		f.aux.insert(la, false)
	}
	stall := f.timing.MissPenalty
	f.stats.StallCycles += uint64(stall)
	f.now += uint64(stall)
	if f.set != nil {
		f.set.allocate(la, f.now)
		f.stats.PrefetchIssued = f.set.issued
	}
	return Result{Stall: stall, Served: ServedMemory}
}

// auxHit books an L1 miss that an augmentation satisfied in stall cycles.
func (f *Front) auxHit(stall int, by ServedBy) Result {
	f.stats.AuxHits++
	f.stats.StallCycles += uint64(stall)
	f.now += uint64(stall)
	return Result{AuxHit: true, Stall: stall, Served: by}
}

// install fills addr's line into L1, dirty when a store or a dirty
// swapped-in line makes it so under write-back. The line L1 displaces
// drops into the victim cache, if there is one, and is otherwise written
// back when dirty.
func (f *Front) install(addr uint64, write, wasDirty bool) {
	victim := f.l1.Fill(addr, (write || wasDirty) && f.writeBack)
	if !victim.Valid {
		return
	}
	if f.shape == missCacheShape || len(f.aux.entries) == 0 {
		if victim.Dirty {
			f.stats.Writebacks++
		}
		return
	}
	// A dirty line displaced out of the victim cache is written back.
	if ev, evicted := f.aux.insert(victim.LineAddr, victim.Dirty); evicted && ev.dirty {
		f.stats.Writebacks++
	}
}

// Stats implements FrontEnd.
func (f *Front) Stats() Stats { return f.stats }

// Accesses returns the running Stats().Accesses count without copying
// the stats block; the hierarchy's miss-observer tap reads it on every
// first-level miss.
func (f *Front) Accesses() uint64 { return f.stats.Accesses }

// Cache implements FrontEnd.
func (f *Front) Cache() *cache.Cache { return f.l1 }

// Name implements FrontEnd.
func (f *Front) Name() string {
	switch f.shape {
	case missCacheShape:
		return fmt.Sprintf("miss-cache-%d", len(f.aux.entries))
	case victimCacheShape:
		return fmt.Sprintf("victim-cache-%d", len(f.aux.entries))
	case streamShape:
		kind := "stream"
		if f.streamCfg.Quasi {
			kind = "quasi-stream"
		}
		if f.streamCfg.DetectStride {
			kind = "stride-stream"
		}
		return fmt.Sprintf("%s-%dway-%ddeep", kind, f.streamCfg.Ways, f.streamCfg.Depth)
	case combinedShape:
		return fmt.Sprintf("combined-vc%d-sb%dx%d", len(f.aux.entries), f.streamCfg.Ways, f.streamCfg.Depth)
	}
	return "baseline"
}

// AuxResidentLines returns the line addresses (in L1 line units) the miss
// or victim cache holds, for content analyses such as the §3.5
// inclusion study. Stream-buffer entries are prefetched lines, not cache
// lines, and are not included.
func (f *Front) AuxResidentLines() []uint64 { return f.aux.residents() }

var _ FrontEnd = (*Front)(nil)
