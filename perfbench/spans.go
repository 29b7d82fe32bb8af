package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Job    int    `json:"job"` // the sample or request the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer, or
// one switched off, records nothing, so untraced code paths pay one
// branch per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), on: true} }

// setOn switches recording; the traced run alternates rounds with
// recording on and off to measure the tracing overhead.
func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span and returns its id, or -1 when not recording.
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize returns per-name totals, where a span's self time is its
// duration minus the part of that interval its children cover.
func (t *tracer) summarize() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanSummary{}
	for _, s := range t.spans {
		dur := s.End - s.Start
		self := dur - covered(children[s.ID], s.Start, s.End)
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalMS += float64(dur) / 1e6
		sum.SelfMS += float64(self) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to [lo, hi].
func covered(kids []span, lo, hi int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, reach int64 = 0, lo
	for _, k := range kids {
		s, e := max(k.Start, reach), min(k.End, hi)
		if e > s {
			total += e - s
			reach = e
		}
	}
	return total
}

// write stores every span and the per-name summary as JSON.
func (t *tracer) write(path string) error {
	sum := t.summarize()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{sum, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
