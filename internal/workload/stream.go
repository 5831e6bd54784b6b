package workload

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/trace"
)

// The streaming engine runs session *classes* rather than session processes:
// every client of a class shares one generator, one RNG, one scratch Step and
// one statistics collector, while per-client state is a fixed ~90-byte task
// struct in a single slab allocation. Memory is therefore bounded per class
// (plus the slab, linear in clients at well under 100 B each), not per
// session: 100k concurrent clients fit in a few megabytes where the process
// driver pays a 5 KB rand.Rand and one Step per client (and a stack only
// while a request is in flight, none while the client thinks). Sessions
// advance as closure-free sim.Task state machines — two engine events per
// page (request start, response completion), no goroutine handoff — and
// classes are partitioned across sim.Shards lanes by simnet node, so one
// large run parallelizes across OS threads with deterministic results for
// any worker count.

// StreamState is the per-session generator state: the step position plus
// three scratch registers generators use to carry cross-step context (the
// Pet Store browser's current category/product, the bidder's item, ...).
type StreamState struct {
	Pos int32
	R   [3]int64
}

// StreamGen writes the step at position st.Pos of one session into step
// (already cleared) and returns false — writing nothing — when the session
// is complete. The engine advances Pos; generators read st.R freely and may
// draw from rng on any step. A fresh session arrives as the zero StreamState.
type StreamGen func(rng *rand.Rand, st *StreamState, step *Step) bool

// nextStep draws the next step of the session in st into step, clearing step
// first, and advances st. When gen ends the session it starts a fresh one
// from the zero state and reports renewed; ok is false when gen produces an
// empty session. Both drivers draw through it, so a client's sessions are the
// same RNG draws in the same order under either.
func nextStep(gen StreamGen, rng *rand.Rand, st *StreamState, step *Step) (ok, renewed bool) {
	step.Page = ""
	clear(step.Params)
	if ok = gen(rng, st, step); !ok {
		*st = StreamState{}
		ok, renewed = gen(rng, st, step), true
	}
	if ok {
		st.Pos++
	}
	return ok, renewed
}

// StreamRequest models one page request synchronously: it returns the
// simulated response time (or an error counted against the page). It runs on
// the class's lane under the engine's one-worker-per-lane round protocol, so
// it may use the lane env's clock and RNG but must not block.
type StreamRequest func(env *sim.Env, c *StreamClass, st *StreamState, step *Step) (time.Duration, error)

// StreamClass describes one homogeneous client population.
type StreamClass struct {
	Name    string
	Node    string // simnet node; also the shard partitioning key
	Local   bool
	Pattern string
	Clients int

	// Delay is the soft think time, as in Group: successive request starts
	// within a session are Delay apart regardless of response times.
	Delay time.Duration

	Gen     StreamGen
	Request StreamRequest

	// TraceWAN, used only when tracing is enabled, reports how much of one
	// request's response time was wide-area wait. The streaming request
	// models are closed-form, so the critical-path split is declared by the
	// model rather than observed span by span.
	TraceWAN func(page string, rt time.Duration) time.Duration
}

// StreamConfig drives one streaming run.
type StreamConfig struct {
	Seed    int64
	Classes []StreamClass

	Warmup   time.Duration
	Duration time.Duration

	// Shards is the lane count (default 1). Classes are assigned to lanes
	// by their Node's first-appearance order, so co-located classes share a
	// lane. Changing Shards changes lane seeds and therefore results;
	// changing Workers never does.
	Shards int

	// Workers caps OS-level parallelism within each round (default:
	// Shards). Results are byte-identical for any value.
	Workers int

	// Window is the barrier lookahead passed to sim.NewShards (default
	// 10ms). The streaming engine itself sends no cross-lane traffic, so
	// the window only sets barrier frequency.
	Window time.Duration

	// Trace, when non-nil, installs a flight-recorder tracer on every lane.
	// Trace IDs derive from (class name, slab index, page ordinal) — pure
	// logical identity — so the sampled ID set is byte-identical for any
	// Workers value and invariant to the Shards count, even though response
	// times themselves depend on lane seeds.
	Trace *trace.Options
}

// StreamResult aggregates one streaming run.
type StreamResult struct {
	Stats    *Stats
	Events   uint64 // engine events dispatched across all lanes
	Pages    uint64 // page requests completed (including warm-up)
	Sessions uint64 // sessions completed (including warm-up)
	Clamped  uint64 // cross-lane sends delivered late, at a round end (sim.Shards.Clamped); 0 = exact

	// Tracing outputs, populated when StreamConfig.Trace is set: the merged
	// per-lane blame aggregates, the surviving flight-recorder contents
	// (ordered by root start time, then trace ID), and the recorder totals.
	Blame        *trace.Aggregator
	Traces       []*trace.Trace
	TraceSampled uint64 // traces recorded (post-sampling), all lanes
	TraceDropped uint64 // flight-recorder evictions, all lanes
}

// classRunner is the shared per-(class, lane) state every session of the
// class uses.
type classRunner struct {
	class   *StreamClass
	env     *sim.Env
	stats   *Stats
	rng     *rand.Rand
	scratch Step
	end     time.Duration

	// tracer is the lane's tracer, nil when tracing is off; classKey seeds
	// per-session trace identity.
	tracer   *trace.Tracer
	classKey uint64

	pages    uint64
	sessions uint64
}

// streamSession is one client: a self-rescheduling task alternating between
// page-start and completion firings.
type streamSession struct {
	cr        *classRunner
	page      string
	pageStart time.Duration
	rt        time.Duration
	st        StreamState
	// key is the session's stable trace identity (class key × slab index);
	// seq counts completed page requests. Both are maintained only when the
	// lane has a tracer.
	key      uint64
	seq      uint64
	inFlight bool
	failed   bool
}

// Fire advances the session state machine by one transition.
func (s *streamSession) Fire(e *sim.Env) {
	cr := s.cr
	if s.inFlight {
		// Response completion: record, then pace the next request start to
		// max(pageStart+Delay, now) — the driver's soft think time.
		s.inFlight = false
		if s.failed {
			cr.stats.RecordError(e.Now(), s.page)
		} else {
			cr.stats.Record(e.Now(), SeriesKey{Pattern: cr.class.Pattern, Page: s.page, Local: cr.class.Local}, s.rt)
			if tr := cr.tracer; tr != nil {
				if id := trace.PageTraceID(s.key, s.seq); tr.Sampled(id) {
					var wan time.Duration
					if f := cr.class.TraceWAN; f != nil {
						wan = f(s.page, s.rt)
					}
					tr.PageSync(id, cr.class.Pattern, s.page, cr.class.Node, cr.class.Local, s.pageStart, s.rt, wan)
				}
			}
		}
		s.seq++
		cr.pages++
		next := s.pageStart + cr.class.Delay
		if next < e.Now() {
			next = e.Now()
		}
		if next >= cr.end {
			return
		}
		e.AtTask(next, s)
		return
	}
	// Request start: draw the step into the class scratch (params are
	// consumed synchronously by Request, so one map serves every session).
	if e.Now() >= cr.end {
		return
	}
	step := &cr.scratch
	ok, renewed := nextStep(cr.class.Gen, cr.rng, &s.st, step)
	if renewed {
		cr.sessions++
	}
	if !ok {
		return // generator produces empty sessions; retire the client
	}
	s.page = step.Page
	s.pageStart = e.Now()
	rt, err := cr.class.Request(e, cr.class, &s.st, step)
	if rt < 0 {
		rt = 0
	}
	s.rt = rt
	s.failed = err != nil
	s.inFlight = true
	e.AtTask(e.Now()+rt, s)
}

// RunStream executes the configured session classes and returns merged
// statistics. Runs are deterministic in (Seed, Classes, durations, Shards,
// Window) and independent of Workers.
func RunStream(cfg StreamConfig) (*StreamResult, error) {
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("workload: no session classes")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("workload: non-positive duration")
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = shards
	}
	window := cfg.Window
	if window <= 0 {
		window = 10 * time.Millisecond
	}
	for i := range cfg.Classes {
		c := &cfg.Classes[i]
		if c.Gen == nil || c.Request == nil {
			return nil, fmt.Errorf("workload: class %q lacks a generator or request model", c.Name)
		}
		if c.Delay <= 0 {
			return nil, fmt.Errorf("workload: class %q has non-positive delay", c.Name)
		}
	}

	lanes := sim.NewShards(cfg.Seed, shards, window)
	var tracers []*trace.Tracer
	if cfg.Trace != nil {
		tracers = make([]*trace.Tracer, shards)
		for i := range tracers {
			tracers[i] = trace.New(lanes.Env(i), *cfg.Trace)
			tracers[i].Install(lanes.Env(i))
		}
	}
	// Class setup order is fixed, so the master stream hands every class the
	// same RNG seed regardless of sharding or worker count.
	master := rand.New(rand.NewSource(cfg.Seed))
	end := cfg.Warmup + cfg.Duration
	shardStats := make([]*Stats, shards)
	for i := range shardStats {
		shardStats[i] = NewStats(cfg.Warmup)
	}
	nodeShard := make(map[string]int)
	runners := make([]*classRunner, 0, len(cfg.Classes))
	for i := range cfg.Classes {
		c := &cfg.Classes[i]
		si, ok := nodeShard[c.Node]
		if !ok {
			si = len(nodeShard) % shards
			nodeShard[c.Node] = si
		}
		cr := &classRunner{
			class: c,
			env:   lanes.Env(si),
			stats: shardStats[si],
			rng:   rand.New(rand.NewSource(master.Int63())),
			end:   end,
		}
		if tracers != nil {
			cr.tracer = tracers[si]
			cr.classKey = trace.ClientKey(c.Name)
		}
		runners = append(runners, cr)
		// One slab holds every client of the class; start times are
		// jittered across one Delay as in the process driver.
		sessions := make([]streamSession, c.Clients)
		for j := range sessions {
			sessions[j].cr = cr
			if tracers != nil {
				sessions[j].key = trace.SessionKey(cr.classKey, uint64(j))
			}
			jitter := time.Duration(cr.rng.Int63n(int64(c.Delay)))
			cr.env.AtTask(jitter, &sessions[j])
		}
	}

	lanes.Run(end, workers)
	res := &StreamResult{Stats: shardStats[0], Events: lanes.Dispatched(), Clamped: lanes.Clamped()}
	lanes.Close()
	for _, st := range shardStats[1:] {
		res.Stats.Merge(st)
	}
	for _, cr := range runners {
		res.Pages += cr.pages
		res.Sessions += cr.sessions
	}
	if tracers != nil {
		res.Blame = trace.NewAggregator()
		for _, tr := range tracers {
			res.Blame.Merge(tr.Aggregator())
			res.Traces = append(res.Traces, tr.Recorder().Traces()...)
			res.TraceSampled += uint64(tr.Recorder().Len()) + uint64(tr.Recorder().Evicted())
			res.TraceDropped += uint64(tr.Recorder().Evicted())
		}
		// Per-lane rings evict independently; order the merged survivors by
		// root start time (then ID) so the view is stable for any Workers.
		slices.SortFunc(res.Traces, func(a, b *trace.Trace) int {
			return cmp.Or(cmp.Compare(a.Root().Start, b.Root().Start), cmp.Compare(a.ID, b.ID))
		})
	}
	return res, nil
}
