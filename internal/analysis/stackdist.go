package analysis

import (
	"fmt"
	"math/bits"
)

// Mattson stack-distance analysis: because LRU is a stack algorithm, one
// pass over a trace yields the miss count of a fully-associative LRU
// cache of *every* capacity simultaneously. For each access, the reuse
// (stack) distance is the number of distinct lines referenced since the
// previous access to the same line; the access misses in any cache with
// fewer lines than that distance. This underlies the capacity/conflict
// discussions throughout the paper (a direct-mapped cache's conflict
// misses are exactly its misses in excess of the equal-size LRU curve).
//
// The implementation keeps the LRU stack as an order-statistic treap
// keyed by last-access time, giving O(log n) per access.

// StackDist computes reuse distances and distance histograms.
type StackDist struct {
	lineShift uint
	nodes     map[uint64]*sdNode // line address → its treap node
	root      *sdNode
	tick      uint64
	rng       uint64

	hist       *Histogram
	compulsory uint64
	accesses   uint64
}

type sdNode struct {
	key         uint64 // last-access tick; larger = more recent
	prio        uint64
	size        int // subtree size
	lineAddr    uint64
	left, right *sdNode
}

func size(n *sdNode) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *sdNode) update() { n.size = 1 + size(n.left) + size(n.right) }

// NewStackDist builds an analyzer for the given line size (a positive
// power of two). maxDist bounds the distance histogram; distances beyond
// it land in the overflow bucket but are still counted exactly in the
// miss-ratio curve for capacities ≤ maxDist.
func NewStackDist(lineSize, maxDist int) (*StackDist, error) {
	if lineSize <= 0 || bits.OnesCount(uint(lineSize)) != 1 {
		return nil, fmt.Errorf("analysis: line size %d is not a positive power of two", lineSize)
	}
	if maxDist <= 0 {
		return nil, fmt.Errorf("analysis: maxDist %d must be positive", maxDist)
	}
	return &StackDist{
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		nodes:     make(map[uint64]*sdNode, 1<<12),
		rng:       0x9E3779B97F4A7C15,
		hist:      NewHistogram(maxDist + 1),
	}, nil
}

// MustNewStackDist is NewStackDist but panics on invalid parameters.
func MustNewStackDist(lineSize, maxDist int) *StackDist {
	sd, err := NewStackDist(lineSize, maxDist)
	if err != nil {
		panic(err)
	}
	return sd
}

func (sd *StackDist) nextPrio() uint64 {
	sd.rng ^= sd.rng << 13
	sd.rng ^= sd.rng >> 7
	sd.rng ^= sd.rng << 17
	return sd.rng
}

// split divides t into nodes with key < k and key ≥ k.
func split(t *sdNode, k uint64) (l, r *sdNode) {
	if t == nil {
		return nil, nil
	}
	if t.key < k {
		t.right, r = split(t.right, k)
		t.update()
		return t, r
	}
	l, t.left = split(t.left, k)
	t.update()
	return l, t
}

func merge(l, r *sdNode) *sdNode {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		l.right = merge(l.right, r)
		l.update()
		return l
	default:
		r.left = merge(l, r.left)
		r.update()
		return r
	}
}

// countGreater returns the number of nodes with key > k.
func countGreater(t *sdNode, k uint64) int {
	n := 0
	for t != nil {
		if t.key > k {
			n += 1 + size(t.right)
			t = t.left
		} else {
			t = t.right
		}
	}
	return n
}

// remove deletes the node with exactly key k.
func remove(t *sdNode, k uint64) *sdNode {
	if t == nil {
		return nil
	}
	if t.key == k {
		return merge(t.left, t.right)
	}
	if k < t.key {
		t.left = remove(t.left, k)
	} else {
		t.right = remove(t.right, k)
	}
	t.update()
	return t
}

// insert adds node n (whose key must be larger than all present keys —
// access ticks are monotone, so it always lands at the right spine).
func insert(t, n *sdNode) *sdNode {
	if t == nil {
		return n
	}
	if n.prio > t.prio {
		n.left, n.right = split(t, n.key)
		n.update()
		return n
	}
	// n.key is the maximum, so it always descends right.
	t.right = insert(t.right, n)
	t.update()
	return t
}

// Access records one reference to addr and returns its reuse distance in
// lines, or -1 for a compulsory (first) reference.
func (sd *StackDist) Access(addr uint64) int {
	sd.accesses++
	sd.tick++
	la := addr >> sd.lineShift

	n, seen := sd.nodes[la]
	dist := -1
	if seen {
		dist = countGreater(sd.root, n.key)
		sd.root = remove(sd.root, n.key)
		sd.hist.Add(dist)
	} else {
		sd.compulsory++
		n = &sdNode{lineAddr: la, prio: sd.nextPrio()}
		sd.nodes[la] = n
	}
	n.key = sd.tick
	n.left, n.right = nil, nil
	n.size = 1
	sd.root = insert(sd.root, n)
	return dist
}

// Accesses returns the number of references processed.
func (sd *StackDist) Accesses() uint64 { return sd.accesses }

// Compulsory returns the number of first references.
func (sd *StackDist) Compulsory() uint64 { return sd.compulsory }

// MissRatio returns the miss ratio of a fully-associative LRU cache with
// the given capacity in lines: references whose reuse distance is ≥
// capacity miss, plus all compulsory references. capacity must not exceed
// the analyzer's maxDist bound.
func (sd *StackDist) MissRatio(capacityLines int) (float64, error) {
	if capacityLines <= 0 {
		return 0, fmt.Errorf("analysis: capacity %d must be positive", capacityLines)
	}
	if capacityLines > len(sd.hist.Buckets)-1 {
		return 0, fmt.Errorf("analysis: capacity %d exceeds the maxDist bound %d",
			capacityLines, len(sd.hist.Buckets)-1)
	}
	if sd.accesses == 0 {
		return 0, nil
	}
	misses := sd.compulsory + sd.hist.Overflow
	for d := capacityLines; d < len(sd.hist.Buckets); d++ {
		misses += sd.hist.Buckets[d]
	}
	return float64(misses) / float64(sd.accesses), nil
}

// MissRatioCurve evaluates MissRatio at each capacity.
func (sd *StackDist) MissRatioCurve(capacities []int) ([]float64, error) {
	out := make([]float64, len(capacities))
	for i, c := range capacities {
		r, err := sd.MissRatio(c)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
