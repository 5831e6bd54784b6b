package trace

import (
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
)

// Deterministic identity. Trace IDs must be pure functions of what a request
// *is* (which client, which page ordinal), never of when it ran or which
// lane ran it — that is what makes the 1-in-N sampler pick the same logical
// requests at any -parallel or -shards setting.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// ClientKey hashes a stable client identity string (FNV-1a).
func ClientKey(name string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PageTraceID derives the trace ID of client key's seq-th page request.
func PageTraceID(key uint64, seq uint64) TraceID {
	return TraceID(mix64(key ^ mix64(seq)))
}

// SessionKey derives a stable per-session client key from a class key and
// the session's index within the class — the streaming engine's identity,
// where a million sessions can't each afford a name string.
func SessionKey(classKey, index uint64) uint64 {
	return mix64(classKey ^ mix64(index))
}

// maxSpans caps spans recorded per trace; excess spans are counted in
// Trace.Dropped instead of growing memory.
const maxSpans = 512

// Options configures a Tracer.
type Options struct {
	// SampleEvery samples 1 in N page requests (≤1 samples every page).
	// The decision is a pure function of the trace ID.
	SampleEvery uint64

	// MaxTraces bounds the flight recorder ring (default 1024). The
	// recorder holds the most recent MaxTraces finished traces; older ones
	// are evicted and counted in trace_dropped_total.
	MaxTraces int

	// OnFinish, when set, observes every finished trace (after aggregation
	// and recording). Tests use it; the CLI uses the recorder.
	OnFinish func(*Trace)
}

// Tracer owns sampling, the blame aggregator, the flight recorder and the
// trace_* metric families for one sim.Env (one lane). Install attaches it to
// the env's trace-hook slot; substrates pick it up at construction time.
type Tracer struct {
	sampleEvery uint64
	rec         *Recorder
	agg         *Aggregator
	onFinish    func(*Trace)
	free        *Trace // last ring-evicted sync trace, recycled by PageSync

	mSampled *metrics.Counter
	mSpans   *metrics.CounterVec
}

// New creates a tracer and registers its metric families on the env's
// registry. Registration happens only here — environments without a tracer
// export byte-identical metric snapshots, per the lazy-registration pattern
// the resilience and redelivery layers use.
func New(env *sim.Env, opts Options) *Tracer {
	if opts.MaxTraces <= 0 {
		opts.MaxTraces = 1024
	}
	reg := env.Metrics()
	return &Tracer{
		sampleEvery: opts.SampleEvery,
		rec:         newRecorder(opts.MaxTraces, reg.Counter("trace_dropped_total")),
		agg:         NewAggregator(),
		onFinish:    opts.OnFinish,
		mSampled:    reg.Counter("trace_sampled_total"),
		mSpans:      reg.CounterVec("trace_spans_total", "node"),
	}
}

// Install attaches the tracer to env so FromEnv finds it.
func (tr *Tracer) Install(env *sim.Env) { env.SetTraceHook(tr) }

// FromEnv returns the tracer installed on env, or nil.
func FromEnv(env *sim.Env) *Tracer {
	tr, _ := env.TraceHook().(*Tracer)
	return tr
}

// Recorder returns the tracer's flight recorder.
func (tr *Tracer) Recorder() *Recorder { return tr.rec }

// Aggregator returns the tracer's blame aggregator.
func (tr *Tracer) Aggregator() *Aggregator { return tr.agg }

// Sampled reports whether the trace ID falls in the sampled 1-in-N subset —
// a pure function of the ID, so the same logical request is sampled at any
// parallelism or sharding.
func (tr *Tracer) Sampled(id TraceID) bool {
	if tr.sampleEvery <= 1 {
		return true
	}
	return mix64(uint64(id))%tr.sampleEvery == 0
}

// StartPage begins a sampled page trace rooted on process p and returns its
// closer, or nil when the request is not sampled (callers skip tracing
// entirely in that case).
func (tr *Tracer) StartPage(p *sim.Proc, id TraceID, pattern, page, node string, local bool) func() {
	if !tr.Sampled(id) {
		return nil
	}
	tr.mSampled.Inc()
	t := &Trace{ID: id, Pattern: pattern, Page: page, Local: local, tr: tr}
	st := &pstate{t: t}
	rootID, _ := t.addSpan(Span{
		Parent: NoParent,
		Layer:  "page",
		Label:  page,
		Node:   node,
		Cause:  CauseService,
		Start:  p.Now(),
	})
	t.open++
	tr.countSpan(node)
	st.stack = append(st.stack, rootID)
	p.SetTraceCtx(st)
	return func() {
		t.Spans[rootID].End = p.Now()
		t.open--
		t.rootDone = true
		p.SetTraceCtx(nil)
		t.maybeFinish()
	}
}

// PageSync records one already-completed synchronous page request as a
// compact trace: a root span, an optional WAN child covering wan of the
// total, the remainder left as root self-time (service). The streaming
// engine uses it — its request models are closed-form, so the breakdown is
// supplied, not observed. Callers check Sampled first.
func (tr *Tracer) PageSync(id TraceID, pattern, page, node string, local bool, start, rt, wan time.Duration) {
	tr.mSampled.Inc()
	t := tr.free
	if t != nil {
		tr.free = nil
		*t = Trace{ID: id, Pattern: pattern, Page: page, Local: local, Spans: t.Spans[:0], tr: tr}
	} else {
		t = &Trace{ID: id, Pattern: pattern, Page: page, Local: local, Spans: make([]Span, 0, 2), tr: tr}
	}
	rootID, _ := t.addSpan(Span{
		Parent: NoParent,
		Layer:  "page",
		Label:  page,
		Node:   node,
		Cause:  CauseService,
		Start:  start,
		End:    start + rt,
	})
	tr.countSpan(node)
	if wan > rt {
		wan = rt
	}
	if wan > 0 {
		t.addSpan(Span{
			Parent: rootID,
			Layer:  "wan",
			Label:  "wide-area round trips",
			Node:   node,
			Cause:  CauseWAN,
			Start:  start,
			End:    start + wan,
		})
		tr.countSpan(node)
	}
	t.rootDone = true
	t.finished = true
	// The blame of this two-span shape is closed-form (root self-time is
	// service, the WAN child is WAN wait, no links, nothing async); skip the
	// generic Analyze tree walk — PageSync runs once per sampled page on the
	// streaming engine's hot path.
	b := PathBlame{Total: rt}
	b.ByCause[CauseWAN] = wan
	b.ByCause[CauseService] = rt - wan
	tr.agg.Add(t, b)
	evicted := tr.rec.Push(t)
	if tr.onFinish != nil {
		tr.onFinish(t)
		return // the callback may retain traces; never recycle under it
	}
	tr.free = evicted
}

// countSpan bumps the per-node span counter (traced requests only).
func (tr *Tracer) countSpan(node string) {
	if node == "" {
		node = "unknown"
	}
	tr.mSpans.With(node).Inc()
}

// finish aggregates and records a completed trace.
func (tr *Tracer) finish(t *Trace) {
	tr.agg.Add(t, Analyze(t))
	tr.rec.Push(t)
	if tr.onFinish != nil {
		tr.onFinish(t)
	}
}
