package main

import "time"

// Host spans: the harness times its own calls into the program (set-up,
// drive, harvest, each probe batch), keeps the spans in memory and writes
// them out when the run ends. Spans inside the program are a later issue
// (ROADMAP item 5).

type hostSpan struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"` // since the recorder was created
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into the spans array, -1 for a root
	Ops     int64  `json:"ops"`
}

type hostSpans struct {
	t0    time.Time
	spans []hostSpan
	stack []int
}

func newHostSpans() *hostSpans { return &hostSpans{t0: time.Now()} }

// open starts a span under the innermost open one and returns its closer,
// which takes the number of operations the span covered.
func (h *hostSpans) open(name, layer string) func(ops int64) {
	id := len(h.spans)
	h.spans = append(h.spans, hostSpan{Name: name, Layer: layer, Parent: h.innermost(), StartNs: int64(time.Since(h.t0))})
	h.stack = append(h.stack, id)
	return func(ops int64) {
		h.spans[id].EndNs = int64(time.Since(h.t0))
		h.spans[id].Ops = ops
		h.stack = h.stack[:len(h.stack)-1]
	}
}

// record adds an already-timed span under the innermost open one: the drive
// region is timed by the host meters, not by a closer call.
func (h *hostSpans) record(name, layer string, start, end time.Time, ops int64) {
	h.spans = append(h.spans, hostSpan{Name: name, Layer: layer, Parent: h.innermost(),
		StartNs: int64(start.Sub(h.t0)), EndNs: int64(end.Sub(h.t0)), Ops: ops})
}

// innermost is the index of the innermost open span, -1 when none is.
func (h *hostSpans) innermost() int {
	if n := len(h.stack); n > 0 {
		return h.stack[n-1]
	}
	return -1
}

// Virtual spans: the program's causal tracer hands every finished span tree
// to the harness, which keeps only per-layer sums.

// vspan is the part of a program span the self-time computation needs.
type vspan struct {
	Parent int32
	Layer  string
	Async  bool
	Start  int64 // virtual ns
	End    int64
}

// spanLayer maps the tracer's Span.Layer strings to module names. A layer
// not listed (cpu, queue, wan, session-repl, ...) is charged to the nearest
// listed ancestor; the page root is the driver's.
var spanLayer = map[string]string{
	"page":    "workload",
	"http":    "web",
	"servlet": "web",
	"render":  "web",
	"tcp":     "simnet",
	"rmi":     "rmi",
	"jndi":    "rmi",
	"retry":   "rmi",
	"backoff": "rmi",
	"call":    "container",
	"cache":   "container",
	"push":    "container",
	"sql":     "sqldb",
	"jms":     "jms",
}

// selfTimes accumulates per-layer virtual self time over finished traces. A
// span's self time is its duration minus the part of that interval its
// synchronous children cover. Async spans (JMS deliveries, parallel push
// legs) run off the requesting process and are left out, so the layer sums
// of one trace add up to that page's response time.
type selfTimes struct {
	Traces  int64
	Spans   int64
	ByLayer map[string]int64 // virtual ns

	layer   []string
	covered []int64
	cursor  []int64
	skip    []bool
}

func newSelfTimes() *selfTimes { return &selfTimes{ByLayer: make(map[string]int64)} }

// add folds one trace in. Spans arrive in open order, so a parent precedes
// its children and the synchronous children of one span are in start order.
func (st *selfTimes) add(spans []vspan) {
	n := len(spans)
	if n == 0 {
		return
	}
	st.Traces++
	st.Spans += int64(n)
	if cap(st.layer) < n {
		st.layer = make([]string, n)
		st.covered = make([]int64, n)
		st.cursor = make([]int64, n)
		st.skip = make([]bool, n)
	}
	layer, covered, cursor, skip := st.layer[:n], st.covered[:n], st.cursor[:n], st.skip[:n]
	for i, s := range spans {
		covered[i], cursor[i] = 0, s.Start
		parent := int(s.Parent)
		hasParent := parent >= 0 && parent < i
		skip[i] = s.Async || (hasParent && skip[parent])
		layer[i] = spanLayer[s.Layer]
		if layer[i] == "" {
			if hasParent {
				layer[i] = layer[parent]
			} else {
				layer[i] = "workload"
			}
		}
		if skip[i] || !hasParent {
			continue
		}
		// Clip to the parent and to what earlier siblings already cover.
		lo, hi := max(s.Start, cursor[parent]), min(s.End, spans[parent].End)
		if hi > lo {
			covered[parent] += hi - lo
			cursor[parent] = hi
		}
	}
	for i, s := range spans {
		if skip[i] {
			continue
		}
		if self := s.End - s.Start - covered[i]; self > 0 {
			st.ByLayer[layer[i]] += self
		}
	}
}

// msPerPage is the layer's mean virtual self time per traced page.
func (st *selfTimes) msPerPage(layer string) float64 {
	return ratio(float64(st.ByLayer[layer])/1e6, float64(st.Traces))
}
