package trace

import "wadeploy/internal/metrics"

// Recorder is the flight recorder: a bounded ring of the most recently
// finished traces. A million-session scale run traces continuously within
// fixed memory — when the ring is full the oldest trace is evicted and
// counted in trace_dropped_total, which is how overflow stays visible in
// `wadeploy metrics`.
type Recorder struct {
	ring    []*Trace
	next    int
	count   int
	dropped *metrics.Counter // trace_dropped_total of the owning tracer
}

// newRecorder creates a recorder holding at most capacity traces that counts
// each eviction in dropped.
func newRecorder(capacity int, dropped *metrics.Counter) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{ring: make([]*Trace, capacity), dropped: dropped}
}

// Push records a finished trace, evicting the oldest if the ring is full.
// The evicted trace is returned (nil while the ring is filling) so callers
// that know no one else references it can recycle its memory — the scale
// engine's steady state allocates nothing per sampled page.
func (r *Recorder) Push(t *Trace) *Trace {
	old := r.ring[r.next]
	if old != nil {
		r.dropped.Inc()
	} else {
		r.count++
	}
	r.ring[r.next] = t
	r.next = (r.next + 1) % len(r.ring)
	return old
}

// Len returns the number of traces currently held.
func (r *Recorder) Len() int { return r.count }

// Traces returns the held traces, oldest first.
func (r *Recorder) Traces() []*Trace {
	out := make([]*Trace, 0, r.count)
	n := len(r.ring)
	for i := 0; i < n; i++ {
		if t := r.ring[(r.next+i)%n]; t != nil {
			out = append(out, t)
		}
	}
	return out
}
