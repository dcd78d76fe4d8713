package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer of the program. Times are offsets from the run's start.
type span struct {
	Run    string        `json:"run"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = none
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps the spans of one run in memory until the run ends. A nil
// *tracer records nothing, so the untraced passes run the same code with
// no clock reads beyond their own.
type tracer struct {
	run  string
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, base: time.Now()} }

// now returns the current time when tracing, the zero time otherwise.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// record stores the span [start, now) under parent. Spans are recorded
// when they close, at chunk granularity or coarser.
func (t *tracer) record(name string, parent int, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Run: t.run, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.base), End: end.Sub(t.base)})
}

// open reserves an ID for a span whose children are recorded before it
// closes; close fills in its interval.
func (t *tracer) open(name string, parent int) (id int, start time.Time) {
	if t == nil {
		return 0, time.Time{}
	}
	start = time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Start: start.Sub(t.base)})
	return id, start
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	end := time.Now().Sub(t.base)
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coverage is the length of the union of the intervals, each clipped to
// [lo, hi).
func coverage(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	var clipped [][2]time.Duration
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e > s {
			clipped = append(clipped, [2]time.Duration{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curS, curE time.Duration
	for i, x := range clipped {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return total + curE - curS
}

// selfStat sums the spans of one name. A span's self time is its
// duration minus the part of it its children cover.
type selfStat struct {
	Name  string
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed self times
}

// selfTimes aggregates self time by span name, and reports how much of
// the root spans' wall-clock their direct children cover (the check that
// the top-level spans account for a traced pass).
func selfTimes(spans []span, root string) (stats []selfStat, rootWall, rootCovered time.Duration) {
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	byName := make(map[string]*selfStat)
	for _, s := range spans {
		d := s.End - s.Start
		cov := coverage(children[s.ID], s.Start, s.End)
		st := byName[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.Total += d
		st.Self += d - cov
		if s.Name == root {
			rootWall += d
			rootCovered += cov
		}
	}
	for _, st := range byName {
		stats = append(stats, *st)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Self > stats[j].Self })
	return stats, rootWall, rootCovered
}

// printSelfTimes writes the self-time table of a traced run.
func printSelfTimes(w io.Writer, spans []span, root string) (covered float64) {
	stats, wall, cov := selfTimes(spans, root)
	fmt.Fprintf(w, "spans: %d recorded; self time by span name:\n", len(spans))
	fmt.Fprintf(w, "  %-22s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, st := range stats {
		fmt.Fprintf(w, "  %-22s %8d %12.6f %12.6f\n", st.Name, st.Count, st.Total.Seconds(), st.Self.Seconds())
	}
	if wall > 0 {
		covered = float64(cov) / float64(wall)
	}
	fmt.Fprintf(w, "  top-level spans cover %.2f%% of the %s spans' %.3fs wall-clock\n",
		100*covered, root, wall.Seconds())
	return covered
}
