package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call. Spans of one request share Req; Parent is the ID of
// the span that caused this one (-1 for a request's root).
type span struct {
	ID, Parent, Req int
	Name            string
	Start, End      time.Time
}

// tracer keeps every span in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID.
func (t *tracer) begin(req, parent int, name string) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per request, the self time summed by span name: a
// span's duration minus the part of its interval that its children
// cover. The self times of one request's spans add up to its root
// span's duration, so the root's own self time is the part of the
// request no stage span covers.
func selfTimes(spans []span) map[int]map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[int]map[string]time.Duration{}
	for _, s := range spans {
		self := s.End.Sub(s.Start) - covered(s, children[s.ID])
		if out[s.Req] == nil {
			out[s.Req] = map[string]time.Duration{}
		}
		out[s.Req][s.Name] += self
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// medianSelf returns the median over requests of the named span's self
// time in ms. Requests without the span are skipped, so the result is
// 0 only when none has it. reqs restricts the requests considered (nil
// = all).
func medianSelf(self map[int]map[string]time.Duration, name string, reqs map[int]bool) float64 {
	var xs []float64
	for req, byName := range self {
		if reqs != nil && !reqs[req] {
			continue
		}
		if d, ok := byName[name]; ok {
			xs = append(xs, ms(d))
		}
	}
	return median(xs)
}

// stageSelfSums returns, per request, the self times of its spans
// summed over every span but the root (named root): the request's
// time as the stages below the root account for it.
func stageSelfSums(self map[int]map[string]time.Duration, root string) []float64 {
	out := make([]float64, 0, len(self))
	for _, byName := range self {
		var t time.Duration
		for name, d := range byName {
			if name != root {
				t += d
			}
		}
		out = append(out, ms(t))
	}
	return out
}
