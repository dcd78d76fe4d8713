package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (its default "exclusive"
// method), which is how run-to-run spreads of this benchmark are judged.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		panic("quartiles: need at least two values")
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median:
// the run-to-run noise measure every end-to-end bound is compared with.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailLadder lists the percentiles a tail latency may be reported at.
// It is fine-grained so that a run with a few more or fewer samples
// moves its tail by a step of a few percentiles, not from p75 to p90.
var tailLadder = []float64{50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 96, 97, 98, 99, 99.5, 99.9}

// tailPercentile picks the highest percentile of the ladder that leaves
// at least 10 of n samples beyond it, so a tail is never read off a
// handful of outliers. It returns ok=false when n is too small for even
// the median to qualify; the median is then reported.
func tailPercentile(n int) (p float64, ok bool) {
	p = tailLadder[0]
	for _, c := range tailLadder {
		if n-nearestRank(n, c) < 10 {
			break
		}
		p, ok = c, true
	}
	return p, ok
}

// nearestRank is the 1-based rank of the p-th percentile of n samples:
// the smallest rank with at least p% of the samples at or below it.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(float64(n)*p/100 - 1e-9))
	return min(max(rank, 1), n)
}

// percentile returns the p-th percentile of xs by the nearest-rank
// method.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[nearestRank(len(xs), p)-1]
}

// latencySummary is a timing distribution reported the way every
// latency of this benchmark is: median plus a tail with its sample count.
type latencySummary struct {
	N       int
	P50     float64
	TailP   float64
	Tail    float64
	TailLow bool // too few samples: the tail is only the median
}

func summarize(xs []float64) latencySummary {
	p, ok := tailPercentile(len(xs))
	l := latencySummary{N: len(xs), P50: median(xs), TailP: p, Tail: percentile(xs, p), TailLow: !ok}
	if !ok {
		l.Tail = l.P50
	}
	return l
}

func (l latencySummary) String() string {
	note := ""
	if l.TailLow {
		note = " (fewer than 20 samples: tail is the median)"
	}
	return fmt.Sprintf("p50 %.6fs, p%g %.6fs over %d samples%s", l.P50, l.TailP, l.Tail, l.N, note)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// digest is the hex SHA-256 of v's JSON encoding. Applied to simulated
// statistics it pins every simulated number: any change to any counter
// changes the digest.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // plain data always marshals
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
