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

// Set stores one request parameter, allocating the map on first use. With
// GrowStep's map reuse, steady-state sessions Set into already-allocated
// maps and the pair is allocation-free.
func (s *Step) Set(key, value string) {
	if s.Params == nil {
		s.Params = make(map[string]string, 4)
	}
	s.Params[key] = value
}

// GrowStep appends one step for page to steps, reusing the vacated slot —
// including its params map, which is cleared in place — when the slice has
// capacity. Generators written against it stop allocating a fresh []Step and
// a map per page once the per-client buffer has grown to the longest session
// seen.
func GrowStep(steps []Step, page string) []Step {
	if len(steps) < cap(steps) {
		steps = steps[:len(steps)+1]
		s := &steps[len(steps)-1]
		s.Page = page
		if s.Params != nil {
			clear(s.Params)
		}
		return steps
	}
	return append(steps, Step{Page: page})
}

// RefillGen produces the step sequence of one session. Generators are
// application-specific: the Pet Store Browser draws pages with the Table 2
// weights, the Buyer follows the fixed Table 3 sequence, and so on. The
// session is written into steps (passed with length 0 and whatever capacity
// previous sessions grew) with GrowStep, and the filled slice is returned.
// Params maps in reused slots arrive cleared but allocated — requests consume
// them synchronously, so handing the same map to every session is safe. The
// RNG draw sequence is part of the contract: the paper-table goldens pin it.
type RefillGen func(rng *rand.Rand, steps []Step) []Step

// Refill gives a session described as a StreamGen its RefillGen form: gen
// runs from the zero state until it ends the session, each step written into
// the caller's buffer through GrowStep, so one description serves both
// drivers with the same RNG draws. The StreamState is pooled because a
// pointer handed to a func value escapes: steady-state sessions allocate
// nothing.
func Refill(gen StreamGen) RefillGen {
	return func(rng *rand.Rand, steps []Step) []Step {
		st := refillStates.Get().(*StreamState)
		defer refillStates.Put(st)
		*st = StreamState{}
		for {
			n := len(steps)
			steps = GrowStep(steps, "")
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
// measured response time.
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

	// BrowserRefill/WriterRefill generate the sessions; each client reuses
	// one step buffer across its sessions.
	BrowserRefill RefillGen
	WriterRefill  RefillGen

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
	for _, g := range cfg.Groups {
		if g.Request == nil {
			return nil, fmt.Errorf("workload: group %q has no request function", g.Name)
		}
		if g.Delay <= 0 {
			return nil, fmt.Errorf("workload: group %q has non-positive delay", g.Name)
		}
		if g.Browsers > 0 && g.BrowserRefill == nil {
			return nil, fmt.Errorf("workload: group %q has browsers but no generator", g.Name)
		}
		if g.Writers > 0 && g.WriterRefill == nil {
			return nil, fmt.Errorf("workload: group %q has writers but no generator", g.Name)
		}
		ids := makeIdentities(cfg.Env, g)
		for i := 0; i < g.Browsers; i++ {
			spawnClient(cfg, stats, g, ids[i], g.BrowserPattern, g.BrowserRefill)
		}
		for i := 0; i < g.Writers; i++ {
			spawnClient(cfg, stats, g, ids[g.Browsers+i], g.WriterPattern, g.WriterRefill)
		}
	}
	cfg.Env.Run(cfg.Warmup + cfg.Duration)
	cfg.Env.Close()
	return stats, nil
}

// clientIdentity is one client's precomputed name, start jitter and private
// RNG seed.
type clientIdentity struct {
	name   string
	jitter time.Duration
	seed   int64
}

// makeIdentities computes every client identity of a group up front, in the
// exact order clients spawn: browsers then writers, each drawing its jitter
// and then its seed from the env RNG (the draw order the paper goldens pin).
// Names are built with one append-formatted allocation per client instead of
// spawnClient's former fmt.Sprintf, and the per-pattern prefix is shared.
func makeIdentities(env *sim.Env, g Group) []clientIdentity {
	ids := make([]clientIdentity, g.Browsers+g.Writers)
	buf := make([]byte, 0, 64)
	prefix := func(pattern string) []byte {
		buf = buf[:0]
		buf = append(buf, "client/"...)
		buf = append(buf, g.Name...)
		buf = append(buf, '/')
		buf = append(buf, pattern...)
		buf = append(buf, '-')
		return buf
	}
	for i := range ids {
		pattern := g.BrowserPattern
		if i >= g.Browsers {
			pattern = g.WriterPattern
		}
		ids[i] = clientIdentity{
			name:   string(strconv.AppendInt(prefix(pattern), int64(i), 10)),
			jitter: time.Duration(env.Rand().Int63n(int64(g.Delay))),
			seed:   env.Rand().Int63(),
		}
	}
	return ids
}

// spawnClient starts one client process running sessions back to back. Each
// client's first request is jittered across one Delay interval so arrivals
// spread evenly instead of thundering in at t=0.
//
// When a tracer is installed on the environment, every page request gets a
// trace ID derived from the client's stable name and its page ordinal — pure
// logical identity, so the sampler picks the same requests no matter how the
// surrounding experiment is parallelized.
func spawnClient(cfg Config, stats *Stats, g Group, id clientIdentity, pattern string, refill RefillGen) {
	env := cfg.Env
	client := Client{Node: g.ClientNode, ID: id.name}
	tracer := trace.FromEnv(env)
	env.SpawnAt(env.Now()+id.jitter, id.name, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(id.seed))
		end := cfg.Warmup + cfg.Duration
		var steps []Step
		var traceKey, traceSeq uint64
		if tracer != nil {
			traceKey = trace.ClientKey(id.name)
		}
		for p.Now() < end {
			steps = refill(rng, steps[:0])
			for _, step := range steps {
				if p.Now() >= end {
					return
				}
				start := p.Now()
				var endTrace func()
				if tracer != nil {
					endTrace = tracer.StartPage(p, trace.PageTraceID(traceKey, traceSeq), pattern, step.Page, g.ClientNode, g.Local)
					traceSeq++
				}
				rt, err := g.Request(p, client, step)
				if endTrace != nil {
					endTrace()
				}
				if err != nil {
					stats.RecordError(p.Now(), step.Page)
				} else {
					stats.Record(p.Now(), SeriesKey{Pattern: pattern, Page: step.Page, Local: g.Local}, rt)
				}
				if cfg.Observer != nil {
					cfg.Observer(p.Now(), client, SeriesKey{Pattern: pattern, Page: step.Page, Local: g.Local}, rt, err)
				}
				// Soft think time: wait out the remainder of the
				// Delay interval; if the response took longer than
				// Delay, start the next request immediately.
				elapsed := p.Now() - start
				if wait := g.Delay - elapsed; wait > 0 {
					p.Sleep(wait)
				}
			}
		}
	})
}
