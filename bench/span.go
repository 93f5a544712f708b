package main

import "time"

// The traced run records a span around every call the benchmark makes into a
// layer: name, start, end and the span that caused it. Spans stay in memory
// and are aggregated when the run ends. They are recorded from the
// benchmark's own files; spans inside the program are a later change.

// noParent is the parent of a root span.
const noParent = -1

type span struct {
	name       string
	parent     int
	start, end time.Duration // offsets from the recorder's origin
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder collects spans on one goroutine.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.origin)})
	return len(r.spans) - 1
}

// end closes a span.
func (r *recorder) end(id int) {
	r.spans[id].end = time.Since(r.origin)
}

// selfTimes returns each span's self time: its duration minus the part of its
// interval that its direct children cover. Children of one parent recorded on
// one goroutine do not overlap, so their clipped durations add; a child that
// runs past its parent (it cannot here, but the arithmetic should not assume
// it) is clipped to the parent's interval.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.parent == noParent {
			continue
		}
		p := spans[s.parent]
		lo, hi := s.start, s.end
		if lo < p.start {
			lo = p.start
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			self[s.parent] -= hi - lo
		}
	}
	return self
}

// byName groups span durations (ms) by span name.
func byName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.name] = append(out[s.name], ms(s.dur()))
	}
	return out
}
