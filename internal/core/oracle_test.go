package core

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"jouppi/internal/cache"
)

// oracleStream is a seeded reference stream for the front-end oracle:
// sequential runs in both directions (stream and stride hits), a +4KB
// conflict partner (miss- and victim-cache hits), random jumps, and
// about 20% stores so write-backs and dirty swaps occur.
func oracleStream(seed int64, n int) (addrs []uint64, writes []bool) {
	rng := rand.New(rand.NewSource(seed))
	addrs, writes = make([]uint64, n), make([]bool, n)
	addr := uint64(0x8000)
	for i := range addrs {
		switch r := rng.Intn(16); {
		case r == 0:
			addr = uint64(rng.Intn(1<<15)) &^ 0x3
		case r <= 3:
			addr ^= 0x1000
		case r == 4:
			addr -= 64
		default:
			addr += 4
		}
		addrs[i], writes[i] = addr, rng.Intn(5) == 0
	}
	return addrs, writes
}

// TestFrontEndOracle pins, for every front-end constructor over write-back
// and write-through L1s, the complete Stats, the name, the auxiliary
// buffer's final contents and the exact sequence of next-level fetches
// (line and prefetch flag, hashed in order). The figures were recorded
// from the original per-augmentation front-end types, so any change to
// probe order, fetch order or write-back accounting shows up here.
func TestFrontEndOracle(t *testing.T) {
	type want struct {
		name      string
		stats     Stats
		aux       []uint64
		fetches   int
		fetchHash uint64
	}
	build := map[string]func(l1 *cache.Cache, f Fetcher) FrontEnd{
		"baseline": func(l1 *cache.Cache, f Fetcher) FrontEnd { return NewBaseline(l1, f, DefaultTiming()) },
		"miss4":    func(l1 *cache.Cache, f Fetcher) FrontEnd { return NewMissCache(l1, 4, f, DefaultTiming()) },
		"victim4":  func(l1 *cache.Cache, f Fetcher) FrontEnd { return NewVictimCache(l1, 4, f, DefaultTiming()) },
		"stream4": func(l1 *cache.Cache, f Fetcher) FrontEnd {
			return NewStreamBuffer(l1, StreamConfig{Ways: 4, Depth: 4}, f, DefaultTiming())
		},
		"stride-quasi": func(l1 *cache.Cache, f Fetcher) FrontEnd {
			return NewStreamBuffer(l1, StreamConfig{Ways: 2, Depth: 3, Quasi: true, DetectStride: true, RunLimit: 6}, f, DefaultTiming())
		},
		"combined": func(l1 *cache.Cache, f Fetcher) FrontEnd {
			return NewCombined(l1, 4, StreamConfig{Ways: 4, Depth: 4}, f, DefaultTiming())
		},
		"combined-nostream": func(l1 *cache.Cache, f Fetcher) FrontEnd {
			return NewCombined(l1, 2, StreamConfig{}, f, DefaultTiming())
		},
	}
	cases := []struct {
		shape string
		wb    bool
		want  want
	}{
		{"baseline", true, want{"baseline", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 0, VictimHits: 0, MissCacheHits: 0, StreamHits: 0, StreamInFlightHits: 0, OverlapHits: 0, Fetches: 9129, PrefetchIssued: 0, PrefetchUsed: 0, Writebacks: 3287, StallCycles: 219096}, nil, 9129, 0xba647213210789c8}},
		{"baseline", false, want{"baseline", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 0, VictimHits: 0, MissCacheHits: 0, StreamHits: 0, StreamInFlightHits: 0, OverlapHits: 0, Fetches: 9129, PrefetchIssued: 0, PrefetchUsed: 0, Writebacks: 0, StallCycles: 219096}, nil, 9129, 0xba647213210789c8}},
		{"miss4", true, want{"miss-cache-4", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 1211, VictimHits: 0, MissCacheHits: 1211, StreamHits: 0, StreamInFlightHits: 0, OverlapHits: 0, Fetches: 7918, PrefetchIssued: 0, PrefetchUsed: 0, Writebacks: 3287, StallCycles: 191243}, []uint64{0x132, 0x32, 0x213, 0x313}, 7918, 0xbb3cb38487bc522d}},
		{"miss4", false, want{"miss-cache-4", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 1211, VictimHits: 0, MissCacheHits: 1211, StreamHits: 0, StreamInFlightHits: 0, OverlapHits: 0, Fetches: 7918, PrefetchIssued: 0, PrefetchUsed: 0, Writebacks: 0, StallCycles: 191243}, []uint64{0x132, 0x32, 0x213, 0x313}, 7918, 0xbb3cb38487bc522d}},
		{"victim4", true, want{"victim-cache-4", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 1555, VictimHits: 1555, MissCacheHits: 0, StreamHits: 0, StreamInFlightHits: 0, OverlapHits: 0, Fetches: 7574, PrefetchIssued: 0, PrefetchUsed: 0, Writebacks: 3093, StallCycles: 183331}, []uint64{0x272, 0x213, 0x132, 0x4d3}, 7574, 0x2339b5dd12120235}},
		{"victim4", false, want{"victim-cache-4", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 1555, VictimHits: 1555, MissCacheHits: 0, StreamHits: 0, StreamInFlightHits: 0, OverlapHits: 0, Fetches: 7574, PrefetchIssued: 0, PrefetchUsed: 0, Writebacks: 0, StallCycles: 183331}, []uint64{0x272, 0x213, 0x132, 0x4d3}, 7574, 0x2339b5dd12120235}},
		{"stream4", true, want{"stream-4way-4deep", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 3899, VictimHits: 0, MissCacheHits: 0, StreamHits: 3899, StreamInFlightHits: 1966, OverlapHits: 0, Fetches: 5230, PrefetchIssued: 24819, PrefetchUsed: 3899, Writebacks: 3287, StallCycles: 172101}, nil, 30049, 0x145af950b3a33bb1}},
		{"stream4", false, want{"stream-4way-4deep", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 3899, VictimHits: 0, MissCacheHits: 0, StreamHits: 3899, StreamInFlightHits: 1966, OverlapHits: 0, Fetches: 5230, PrefetchIssued: 24819, PrefetchUsed: 3899, Writebacks: 0, StallCycles: 172101}, nil, 30049, 0x145af950b3a33bb1}},
		{"stride-quasi", true, want{"stride-stream-2way-3deep", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 3990, VictimHits: 0, MissCacheHits: 0, StreamHits: 3990, StreamInFlightHits: 2225, OverlapHits: 0, Fetches: 5139, PrefetchIssued: 19408, PrefetchUsed: 3990, Writebacks: 3287, StallCycles: 174947}, nil, 24547, 0xef96b74f4157ed0f}},
		{"stride-quasi", false, want{"stride-stream-2way-3deep", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 3990, VictimHits: 0, MissCacheHits: 0, StreamHits: 3990, StreamInFlightHits: 2225, OverlapHits: 0, Fetches: 5139, PrefetchIssued: 19408, PrefetchUsed: 3990, Writebacks: 0, StallCycles: 174947}, nil, 24547, 0xef96b74f4157ed0f}},
		{"combined", true, want{"combined-vc4-sb4x4", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 5131, VictimHits: 1555, MissCacheHits: 0, StreamHits: 3576, StreamInFlightHits: 1858, OverlapHits: 156, Fetches: 3998, PrefetchIssued: 19568, PrefetchUsed: 3576, Writebacks: 3093, StallCycles: 140079}, []uint64{0x272, 0x213, 0x132, 0x4d3}, 23566, 0xd8bac0e4a5b6e0ef}},
		{"combined", false, want{"combined-vc4-sb4x4", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 5131, VictimHits: 1555, MissCacheHits: 0, StreamHits: 3576, StreamInFlightHits: 1858, OverlapHits: 156, Fetches: 3998, PrefetchIssued: 19568, PrefetchUsed: 3576, Writebacks: 0, StallCycles: 140079}, []uint64{0x272, 0x213, 0x132, 0x4d3}, 23566, 0xd8bac0e4a5b6e0ef}},
		{"combined-nostream", true, want{"combined-vc2-sb0x0", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 1511, VictimHits: 1511, MissCacheHits: 0, StreamHits: 0, StreamInFlightHits: 0, OverlapHits: 0, Fetches: 7618, PrefetchIssued: 0, PrefetchUsed: 0, Writebacks: 3106, StallCycles: 184343}, []uint64{0x272, 0x132}, 7618, 0xaad560ec58c71112}},
		{"combined-nostream", false, want{"combined-vc2-sb0x0", Stats{Accesses: 20000, L1Hits: 10871, L1Misses: 9129, AuxHits: 1511, VictimHits: 1511, MissCacheHits: 0, StreamHits: 0, StreamInFlightHits: 0, OverlapHits: 0, Fetches: 7618, PrefetchIssued: 0, PrefetchUsed: 0, Writebacks: 0, StallCycles: 184343}, []uint64{0x272, 0x132}, 7618, 0xaad560ec58c71112}},
	}
	addrs, writes := oracleStream(1998, 20000)
	for _, tc := range cases {
		policy := cache.WriteThrough
		if tc.wb {
			policy = cache.WriteBack
		}
		l1 := cache.MustNew(cache.Config{Name: "L1", Size: 1024, LineSize: 16, Assoc: 1, WritePolicy: policy})
		h := fnv.New64a()
		fetches := 0
		fe := build[tc.shape](l1, func(line uint64, prefetch bool) {
			var b [9]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(line >> (8 * i))
			}
			if prefetch {
				b[8] = 1
			}
			h.Write(b[:])
			fetches++
		})
		for i := range addrs {
			fe.Access(addrs[i], writes[i])
		}
		var aux []uint64
		if a, ok := fe.(interface{ AuxResidentLines() []uint64 }); ok {
			aux = a.AuxResidentLines()
		}
		got := want{fe.Name(), fe.Stats(), aux, fetches, h.Sum64()}
		if got.name != tc.want.name || got.stats != tc.want.stats || !slices.Equal(got.aux, tc.want.aux) ||
			got.fetches != tc.want.fetches || got.fetchHash != tc.want.fetchHash {
			t.Errorf("%s wb=%v:\n got %+v\nwant %+v", tc.shape, tc.wb, got, tc.want)
		}
	}
}
