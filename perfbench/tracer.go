package main

import (
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one operation share a root: a
// span's Parent is the id of the span that caused it (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the tracer started
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory; the record writes them out when the run
// ends. A nil *tracer records nothing, so untraced code paths share the
// traced ones without timing anything.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].ms()
}

// call runs f inside a span.
func (t *tracer) call(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// layer sums the durations of spans named name under parent (any parent
// when parent is 0) and counts them.
func (t *tracer) layer(name string, parent int) (totalMS float64, n int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && (parent == 0 || s.Parent == parent) {
			totalMS += s.ms()
			n++
		}
	}
	return totalMS, n
}

// get returns span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// selfMS is a span's duration minus the part its child spans cover
// (children of one replay never overlap: the replay is serial).
func (t *tracer) selfMS(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.spans[id-1].ms()
	for _, s := range t.spans {
		if s.Parent == id {
			self -= s.ms()
		}
	}
	return self
}
