package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program.
// Times are nanoseconds since the tracer started. Parent is the index of
// the enclosing span, or -1.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// Tracer records spans in memory. A nil *Tracer records nothing, which is
// how the untraced runs call the same code paths. It is safe for
// concurrent use: the serve-zipf client workers share one.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now(), spans: make([]Span, 0, 1<<16)} }

// Begin opens a span and returns its index for End.
func (t *Tracer) Begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Add records a span whose start and end the caller measured itself (the
// open-loop generator times requests from their due time) and returns its
// index.
func (t *Tracer) Add(name string, op int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// SpanStats summarises the spans of one name: how many, and their mean
// self time (duration minus the part of the interval its children
// cover).
type SpanStats struct {
	Count  int
	SelfNS float64
	// Coverage is the share of the spans' total duration their children
	// cover, and MinCoverage the lowest share for one span (1 for spans
	// without children).
	Coverage, MinCoverage float64
}

// Stats computes SpanStats for every span name.
func (t *Tracer) Stats() map[string]SpanStats {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	type acc struct {
		n           int
		dur, self   int64
		minCoverage float64
	}
	accs := make(map[string]*acc)
	for i, s := range t.spans {
		dur := s.End - s.Start
		covered := covered(t.spans, children[i], s.Start, s.End)
		a := accs[s.Name]
		if a == nil {
			a = &acc{minCoverage: 1}
			accs[s.Name] = a
		}
		a.n++
		a.dur += dur
		a.self += dur - covered
		if len(children[i]) > 0 && dur > 0 {
			if c := float64(covered) / float64(dur); c < a.minCoverage {
				a.minCoverage = c
			}
		}
	}
	out := make(map[string]SpanStats, len(accs))
	for name, a := range accs {
		out[name] = SpanStats{Count: a.n, SelfNS: float64(a.self) / float64(a.n), MinCoverage: a.minCoverage,
			Coverage: 1 - float64(a.self)/float64(a.dur)}
	}
	return out
}

// covered returns how much of [start, end) the union of the given spans
// covers.
func covered(spans []Span, idx []int, start, end int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, start), min(spans[i].End, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64
	reach = start
	for _, v := range iv {
		if v[1] <= reach {
			continue
		}
		total += v[1] - max(v[0], reach)
		reach = v[1]
	}
	return total
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
