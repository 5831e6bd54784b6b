package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/trace"
)

// Step is one page request within a session.
type Step struct {
	Page   string
	Params map[string]string
}

// Set stores one request parameter, allocating the map on first use. Both
// drivers draw every step into a Step they reuse, clearing the map in place,
// so steady-state sessions Set into an already-allocated map and the pair is
// allocation-free.
func (s *Step) Set(key, value string) {
	if s.Params == nil {
		s.Params = make(map[string]string, 4)
	}
	s.Params[key] = value
}

// RefillGen writes the step sequence of one whole session into steps (passed
// with length 0) and returns the filled slice. It and Refill remain for the
// benchmark's session-generation probe, which times whole sessions.
type RefillGen func(rng *rand.Rand, steps []Step) []Step

// Refill gives a session described as a StreamGen its RefillGen form: gen
// runs from the zero state until it ends the session, with the RNG draws of
// the drivers, each step written into the caller's buffer — reusing a vacated
// slot and its params map, cleared in place, where the buffer has capacity.
// The StreamState is pooled because a pointer handed to a func value escapes:
// steady-state sessions allocate nothing.
func Refill(gen StreamGen) RefillGen {
	return func(rng *rand.Rand, steps []Step) []Step {
		st := refillStates.Get().(*StreamState)
		defer refillStates.Put(st)
		*st = StreamState{}
		for n := len(steps); ; n++ {
			if n == cap(steps) {
				steps = append(steps, Step{})
			}
			steps = steps[:n+1]
			steps[n].Page = ""
			clear(steps[n].Params)
			if !gen(rng, st, &steps[n]) {
				return steps[:n]
			}
			st.Pos++
		}
	}
}

var refillStates = sync.Pool{New: func() any { return new(StreamState) }}

// Client identifies one simulated client machine process: its network node
// and a unique ID that applications use to key per-client web sessions.
type Client struct {
	Node string
	ID   string
}

// RequestFunc issues one page request on behalf of a client and returns the
// measured response time. step.Params belongs to the driver, which redraws
// it for the client's next page: a request reads it and must not keep it.
type RequestFunc func(p *sim.Proc, client Client, step Step) (time.Duration, error)

// Group is one client group: the machines collocated with one application
// server, split between browser and writer usage patterns.
type Group struct {
	Name       string // e.g. "local", "remote-1"
	ClientNode string
	Local      bool

	Browsers int // concurrent browser clients
	Writers  int // concurrent buyer/bidder clients

	// Delay is the soft think time: the interval between successive
	// request starts within a session. Offered load per client is
	// 1/Delay regardless of response times (Section 3.3).
	Delay time.Duration

	BrowserPattern string
	WriterPattern  string

	// BrowserGen/WriterGen generate the sessions; each client draws its next
	// step just before requesting it.
	BrowserGen StreamGen
	WriterGen  StreamGen

	Request RequestFunc
}

// Rate returns the group's offered load in requests per second.
func (g Group) Rate() float64 {
	if g.Delay <= 0 {
		return 0
	}
	return float64(g.Browsers+g.Writers) / g.Delay.Seconds()
}

// Observer sees every completed request — including warm-up and failures,
// which Stats discards or aggregates away. now is the completion time, rt is
// meaningful only when err is nil. Observers must be pure accumulators: they
// run inside client processes and must not touch the RNG or the clock.
type Observer func(now time.Duration, client Client, key SeriesKey, rt time.Duration, err error)

// Config drives one experiment run.
type Config struct {
	Env    *sim.Env
	Groups []Group

	// Warmup is discarded; Duration is the measured interval after it.
	Warmup   time.Duration
	Duration time.Duration

	// Observer, when non-nil, is invoked for every completed request.
	// The availability experiment uses it to score per-node success rates
	// inside a fault window, which Stats cannot express.
	Observer Observer
}

// Run simulates the configured client load and returns collected statistics.
// It spawns one process per client, runs the environment for
// Warmup+Duration of virtual time, then tears the clients down.
func Run(cfg Config) (*Stats, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("workload: nil environment")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("workload: non-positive duration")
	}
	stats := NewStats(cfg.Warmup)
	tracer := trace.FromEnv(cfg.Env)
	for i := range cfg.Groups {
		g := &cfg.Groups[i]
		if g.Request == nil {
			return nil, fmt.Errorf("workload: group %q has no request function", g.Name)
		}
		if g.Delay <= 0 {
			return nil, fmt.Errorf("workload: group %q has non-positive delay", g.Name)
		}
		if g.Browsers > 0 && g.BrowserGen == nil {
			return nil, fmt.Errorf("workload: group %q has browsers but no generator", g.Name)
		}
		if g.Writers > 0 && g.WriterGen == nil {
			return nil, fmt.Errorf("workload: group %q has writers but no generator", g.Name)
		}
		spawnClients(&cfg, stats, tracer, g)
	}
	cfg.Env.Run(cfg.Warmup + cfg.Duration)
	cfg.Env.Close()
	return stats, nil
}

// client is one simulated client of Run, kept in a heap record rather than on
// a stack: its private RNG, its session's generator state, the one step it
// requests next and its trace identity. Its process serves pages back to back
// while responses outlast Delay; otherwise it restarts itself when the next
// page is due, so a thinking client holds a timer entry and no coroutine.
type client struct {
	cfg     *Config
	stats   *Stats
	g       *Group
	id      Client
	pattern string
	gen     StreamGen
	rng     *rand.Rand
	st      StreamState
	step    Step
	// tracer is nil when tracing is off; with it every page gets a trace ID
	// from the client's stable name (traceKey) and page ordinal (traceSeq),
	// pure logical identity, so the sampler picks the same requests however
	// the surrounding experiment is parallelized.
	tracer             *trace.Tracer
	traceKey, traceSeq uint64
}

// spawnClients starts the group's clients, browsers then writers, each
// drawing its start jitter and then its private RNG seed from the env RNG
// (the draw order the paper goldens pin). The first request is jittered
// across one Delay interval so arrivals spread evenly instead of thundering
// in at t=0. Names share one append-formatted prefix per pattern.
func spawnClients(cfg *Config, stats *Stats, tracer *trace.Tracer, g *Group) {
	env := cfg.Env
	clients := make([]client, g.Browsers+g.Writers)
	buf := make([]byte, 0, 64)
	for i := range clients {
		pattern, gen := g.BrowserPattern, g.BrowserGen
		if i >= g.Browsers {
			pattern, gen = g.WriterPattern, g.WriterGen
		}
		buf = append(buf[:0], "client/"...)
		buf = append(buf, g.Name...)
		buf = append(buf, '/')
		buf = append(buf, pattern...)
		buf = append(buf, '-')
		name := string(strconv.AppendInt(buf, int64(i), 10))
		jitter := time.Duration(env.Rand().Int63n(int64(g.Delay)))
		c := &clients[i]
		*c = client{
			cfg: cfg, stats: stats, g: g,
			id:      Client{Node: g.ClientNode, ID: name},
			pattern: pattern,
			gen:     gen,
			rng:     rand.New(rand.NewSource(env.Rand().Int63())),
			tracer:  tracer,
		}
		if tracer != nil {
			c.traceKey = trace.ClientKey(name)
		}
		env.SpawnAt(env.Now()+jitter, name, c.serve)
	}
}

// serve is the client's process function; each run of it starts when a page
// is due.
func (c *client) serve(p *sim.Proc) {
	g, end := c.g, c.cfg.Warmup+c.cfg.Duration
	for p.Now() < end {
		if ok, _ := nextStep(c.gen, c.rng, &c.st, &c.step); !ok {
			return // the generator produces empty sessions: retire the client
		}
		start := p.Now()
		var endTrace func()
		if c.tracer != nil {
			endTrace = c.tracer.StartPage(p, trace.PageTraceID(c.traceKey, c.traceSeq), c.pattern, c.step.Page, g.ClientNode, g.Local)
			c.traceSeq++
		}
		rt, err := g.Request(p, c.id, c.step)
		if endTrace != nil {
			endTrace()
		}
		key := SeriesKey{Pattern: c.pattern, Page: c.step.Page, Local: g.Local}
		if err != nil {
			c.stats.RecordError(p.Now(), c.step.Page)
		} else {
			c.stats.Record(p.Now(), key, rt)
		}
		if c.cfg.Observer != nil {
			c.cfg.Observer(p.Now(), c.id, key, rt, err)
		}
		// Soft think time: the next request starts Delay after this one did,
		// or at once if the response took longer than that.
		if due := start + g.Delay; due > p.Now() {
			p.RestartAt(due)
			return
		}
	}
}
