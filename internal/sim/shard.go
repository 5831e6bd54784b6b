package sim

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Shards runs N independent simulation lanes — one full *Env per simnet node
// group — in deterministic barrier-synchronized rounds, so a single large run
// parallelizes across OS threads without perturbing event order.
//
// The round protocol:
//
//  1. The coordinator computes the earliest pending event time across all
//     lanes (single-threaded, from global state) and fixes the round end at
//     min(until, earliest+window).
//  2. Every lane runs independently up to the round end. Cross-lane sends
//     made during the round are appended to per-(src, dst) buffers; a buffer
//     is touched only by the worker running lane src, so the round needs no
//     locks.
//  3. At the barrier, each destination's inbox is gathered, sorted by
//     (at, src, srcSeq), clamped to fire no earlier than the round end, and
//     scheduled into the destination lane in that order (single-threaded, so
//     destination-local seq assignment is fixed).
//
// Every cross-lane decision — round boundaries, inbox order, delivery seqs —
// is made single-threaded at barriers from state that does not depend on
// worker interleaving, so results are byte-identical for any worker count
// (pinned by TestShardsWorkerCountInvariance).
//
// Exactness contract: a send whose deadline lands inside the current round is
// clamped to the round end. Callers that route all cross-lane traffic with
// latency ≥ window (the simnet WAN links comfortably exceed any sensible
// window) never hit the clamp and observe latencies exactly as scheduled;
// Clamped counts the sends that did.
type Shards struct {
	envs    []*Env
	window  time.Duration
	clamped uint64 // cross-lane sends the barrier moved to a round end

	bufs   [][]crossMsg // len n*n, index src*n+dst; appended only by src's worker
	srcSeq []uint64     // per-src send counter, breaks same-instant ties

	inbox []crossMsg // barrier scratch, reused across rounds
}

// crossMsg is one buffered cross-lane task delivery; (at, src, srcSeq) is the
// barrier's sort key.
type crossMsg struct {
	at     time.Duration
	src    int
	srcSeq uint64
	task   Task
}

// NewShards creates n lanes with per-lane RNG seeds derived from seed.
// window is the round lookahead: larger windows mean fewer barriers but
// clamp cross-lane sends scheduled closer than window ahead.
func NewShards(seed int64, n int, window time.Duration) *Shards {
	if n < 1 {
		n = 1
	}
	if window < 0 {
		window = 0
	}
	s := &Shards{
		envs:   make([]*Env, n),
		window: window,
		bufs:   make([][]crossMsg, n*n),
		srcSeq: make([]uint64, n),
	}
	for i := range s.envs {
		// Golden-ratio stride keeps derived seeds distinct and uncorrelated
		// with each other for any n, without depending on n itself.
		s.envs[i] = NewEnv(seed ^ int64(uint64(i+1)*0x9E3779B97F4A7C15))
	}
	return s
}

// Env returns lane i's environment. Lane-local scheduling (AtTask, Spawn,
// resources) goes directly through it; only cross-lane traffic must use Send.
func (s *Shards) Env(i int) *Env { return s.envs[i] }

// Dispatched returns the total events executed across all lanes.
func (s *Shards) Dispatched() uint64 {
	var total uint64
	for _, e := range s.envs {
		total += e.Dispatched()
	}
	return total
}

// Clamped returns the number of cross-lane sends whose deadline fell inside
// the round they were made in, and which the barrier therefore delivered
// late, at the round end. Zero: every latency was observed as scheduled.
func (s *Shards) Clamped() uint64 { return s.clamped }

// Send schedules t to fire at virtual time at on lane dst. Called from lane
// src while it runs a round; same-lane sends schedule directly. Cross-lane
// sends are buffered and delivered at the next barrier, no earlier than the
// round end (see the exactness contract above).
func (s *Shards) Send(src, dst int, at time.Duration, t Task) {
	if src == dst {
		s.envs[src].AtTask(at, t)
		return
	}
	s.srcSeq[src]++
	i := src*len(s.envs) + dst
	s.bufs[i] = append(s.bufs[i], crossMsg{at: at, src: src, srcSeq: s.srcSeq[src], task: t})
}

// nextEventAt returns the earliest pending event time across lanes.
func (s *Shards) nextEventAt() (time.Duration, bool) {
	var min time.Duration
	found := false
	for _, e := range s.envs {
		if at, ok := e.NextEventAt(); ok && (!found || at < min) {
			min = at
			found = true
		}
	}
	return min, found
}

// Run executes rounds until the virtual clock reaches until or no events
// remain anywhere. workers is the number of OS goroutines running lanes
// concurrently within each round; any value yields identical results.
func (s *Shards) Run(until time.Duration, workers int) {
	if workers < 1 {
		workers = 1
	}
	for {
		next, ok := s.nextEventAt()
		if !ok || next > until {
			break
		}
		roundEnd := next + s.window
		if roundEnd > until {
			roundEnd = until
		}
		s.runLanes(roundEnd, workers)
		s.flush(roundEnd)
	}
	// Advance every lane's clock to until (no events ≤ until remain).
	s.runLanes(until, 1)
}

// runLanes advances every lane to roundEnd. With one worker the lanes run
// sequentially on the calling goroutine; otherwise workers pull lane indexes
// from a shared atomic counter. Each lane is touched by exactly one
// goroutine per round.
func (s *Shards) runLanes(roundEnd time.Duration, workers int) {
	if workers == 1 || len(s.envs) == 1 {
		for _, e := range s.envs {
			e.Run(roundEnd)
		}
		return
	}
	if workers > len(s.envs) {
		workers = len(s.envs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.envs) {
					return
				}
				s.envs[i].Run(roundEnd)
			}
		}()
	}
	wg.Wait()
}

// flush delivers every buffered cross-lane message. Runs single-threaded at
// the barrier: inbox order and destination seq assignment depend only on
// (at, src, srcSeq), never on worker interleaving.
func (s *Shards) flush(roundEnd time.Duration) {
	n := len(s.envs)
	for dst := 0; dst < n; dst++ {
		inbox := s.inbox[:0]
		for src := 0; src < n; src++ {
			i := src*n + dst
			for _, m := range s.bufs[i] {
				if m.at < roundEnd {
					m.at = roundEnd
					s.clamped++
				}
				inbox = append(inbox, m)
			}
			s.bufs[i] = s.bufs[i][:0]
		}
		slices.SortFunc(inbox, func(a, b crossMsg) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.srcSeq, b.srcSeq))
		})
		for _, m := range inbox {
			s.envs[dst].AtTask(m.at, m.task)
		}
		s.inbox = inbox[:0]
	}
}

// Close closes every lane and drops buffered messages.
func (s *Shards) Close() {
	for _, e := range s.envs {
		e.Close()
	}
	clear(s.bufs)
	s.inbox = nil
}
