// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine provides a virtual clock, coroutine-style processes, promises
// for request/response rendezvous, and capacity-limited resources for
// modeling queued servers. Application code written against sim looks
// synchronous (a process sends a request and blocks for the reply) while the
// engine advances a virtual clock between events, so an hour of simulated
// wall-clock time executes in milliseconds and every run with the same seed
// is byte-for-byte reproducible.
//
// Exactly one process runs at a time, so process code needs no locking. A
// process runs on a runtime coroutine (iter.Pull): the scheduler resumes it
// with next, a blocking operation hands control back with yield, and neither
// touches a channel, the run queue or a second thread. Three rules make the
// hand-off cheaper still without moving a single event:
//
//   - Coroutines and Procs outlive processes: when a process function
//     returns, its coroutine parks on Env.idle for the next first step and
//     its Proc, cleared, is the next Spawn's. Close ends the coroutines, and
//     so does the dispatch loop once the queue is empty and no process is
//     left on a stack, so an Env run to quiescence and dropped holds no
//     goroutine. A killed or panicking process's Proc is never reused.
//   - Proc.RestartAt, as a process's last act, gives its coroutine back while
//     it waits: the same Proc runs its function again from the top at the
//     queue position and Dispatched count a Sleep until then would take, so
//     a process keeping its state on the heap waits as one timer entry. A
//     killed or panicking process never restarts.
//   - Sleep advances the clock in place when its wake-up is the event the
//     scheduler would pop next (strictly earlier than everything queued, and
//     within the running loop's horizon): no push, no pop, no switch; seq and
//     Dispatched advance exactly as on the queued path. It relies on
//     timerQueue.nextAt never migrating the wheel's overflow (see there).
//
// Blocking operations (Proc.Sleep, Await, Resource.Acquire) may only be
// called from processes, never from raw event callbacks scheduled with
// Env.At.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"time"

	"wadeploy/internal/metrics"
)

// errKilled is panicked inside a blocked process when the environment is
// closed, unwinding the process's stack. It is recovered by the coroutine
// that runs the process and never escapes to user code.
var errKilled = errors.New("sim: process killed by Env.Close")

// event is a scheduled Task firing: a raw callback (Env.At/After), a process
// resumption or a task (Env.AtTask/AfterTask). seq breaks ties so that events
// scheduled earlier at the same instant run first, keeping runs
// deterministic.
//
// Each kind is one pointer-shaped Task — a func value as funcTask, a *Proc as
// *resume — so the slot holds no per-event heap allocation and the
// scheduler makes one call whatever the kind.
type event struct {
	at   time.Duration
	seq  uint64
	task Task
}

// funcTask fires a raw callback scheduled with Env.At.
type funcTask func()

func (f funcTask) Fire(*Env) { f() }

// resume fires a process resumption: a *Proc converted, so that Proc itself
// gains no exported Fire.
type resume Proc

func (r *resume) Fire(e *Env) { e.step((*Proc)(r)) }

// eventHeap is a min-heap of events ordered by (at, seq). The engine's event
// queue (timerQueue) uses it for wheel slots and the far-timer overflow; the
// wheel property test also replays schedules through a bare eventHeap as the
// ordering oracle, since a single global heap is trivially correct.
type eventHeap []event

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	// The vacated slot is deliberately not re-zeroed: the backing array is a
	// freelist that the next push overwrites in place, and clearing it here
	// costs a write per event on the hot path. Stale task references are
	// retained at most until the slot is reused or the Env is dropped, both
	// bounded by the peak event-queue size of the run.
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			return
		}
		h.Swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left, right := 2*i+1, 2*i+2
		least := i
		if left < n && h.Less(left, least) {
			least = left
		}
		if right < n && h.Less(right, least) {
			least = right
		}
		if least == i {
			return
		}
		h.Swap(i, least)
		i = least
	}
}

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv; it is not safe for concurrent use from multiple
// OS-level goroutines other than through the engine's own handoff protocol.
type Env struct {
	now        time.Duration
	seq        uint64
	events     timerQueue
	dispatched uint64
	rng        *rand.Rand

	horizon time.Duration // the dispatch loop in progress runs no event later than this
	coros   []*coroutine  // every coroutine not yet stopped: running a process, or idle
	idle    []*coroutine  // the ones whose process returned, awaiting the next first step
	live    int           // processes spawned and neither finished nor killed
	closed  bool
	curr    *Proc      // process currently holding control, if any
	procs   Free[Proc] // the Procs of processes whose function returned

	metrics *metrics.Registry // lazily created; reads the virtual clock

	traceHook any // opaque slot for a causal tracer (internal/trace); sim stays tracer-agnostic
}

// NewEnv returns a fresh environment whose random source is seeded with seed.
func NewEnv(seed int64) *Env {
	e := &Env{rng: rand.New(rand.NewSource(seed))}
	e.events.memoTick = -1
	return e
}

// Now returns the current virtual time, measured from the start of the run.
func (e *Env) Now() time.Duration { return e.now }

// Current returns the process currently holding control, or nil when the
// scheduler is running a raw callback or task. Hooks invoked from code that
// has no *Proc parameter (the sqldb write hook, for one) use it to reach the
// executing process's trace context.
func (e *Env) Current() *Proc { return e.curr }

// SetTraceHook installs an opaque causal tracer on the environment.
// Substrates retrieve it with TraceHook at construction time; sim never
// interprets the value.
func (e *Env) SetTraceHook(v any) { e.traceHook = v }

// TraceHook returns the value installed with SetTraceHook (nil if none).
func (e *Env) TraceHook() any { return e.traceHook }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Metrics returns the environment's metrics registry, creating it on first
// use. The registry reads the virtual clock, so sampled series are as
// deterministic as the run itself. Instruments are mutated only under the
// engine's one-process-at-a-time handoff protocol and therefore take no
// locks.
func (e *Env) Metrics() *metrics.Registry {
	if e.metrics == nil {
		e.metrics = metrics.NewRegistry(func() time.Duration { return e.now })
	}
	return e.metrics
}

// Pending reports the number of scheduled events not yet executed.
func (e *Env) Pending() int { return e.events.len() }

// Dispatched reports the total number of events executed since the
// environment was created — the engine's events-per-second numerator.
func (e *Env) Dispatched() uint64 { return e.dispatched }

// NextEventAt returns the virtual time of the earliest pending event, or
// false when the queue is empty. The sharded runner uses it to size barrier
// rounds; it does not advance the clock.
func (e *Env) NextEventAt() (time.Duration, bool) { return e.events.nextAt() }

// Live reports the number of processes that have been spawned and have
// neither finished nor been killed.
func (e *Env) Live() int { return e.live }

// schedule queues ev at ev.at (clamped to now if in the past) under the next
// sequence number.
func (e *Env) schedule(ev event) {
	if e.closed {
		return
	}
	if ev.at < e.now {
		ev.at = e.now
	}
	e.seq++
	ev.seq = e.seq
	e.events.push(ev, e.now)
}

// At schedules fn to run at virtual time at (clamped to now if in the past).
// fn runs on the scheduler and must not call blocking process operations.
func (e *Env) At(at time.Duration, fn func()) { e.schedule(event{at: at, task: funcTask(fn)}) }

// After schedules fn to run d from now.
func (e *Env) After(d time.Duration, fn func()) { e.At(e.now+d, fn) }

// Proc is a simulation process: a function whose execution is interleaved
// deterministically with all other processes by the environment.
type Proc struct {
	env       *Env
	name      string
	fn        func(p *Proc)
	co        *coroutine    // the coroutine running fn; nil before the first step and after fn returns
	traceCtx  any           // opaque per-process slot for a causal tracer's span state
	restart   bool          // RestartAt was called: run fn again at restartAt once it returns
	restartAt time.Duration // the restart's wake-up time
}

// RestartAt makes fn's return end only the current run: the same Proc (name,
// trace context and all) is scheduled to run fn again from the top at at,
// clamped to now, and its coroutine is pooled meanwhile. As fn's last act it
// takes the queue position and Dispatched count Sleep(at-Now()) would, so the
// schedule is unchanged. A process killed or panicking first never restarts.
func (p *Proc) RestartAt(at time.Duration) { p.restart, p.restartAt = true, at }

// SetTraceCtx stores an opaque causal-tracing context on the process. The
// slot belongs to whatever tracer is installed on the environment; sim itself
// never reads it.
func (p *Proc) SetTraceCtx(v any) { p.traceCtx = v }

// TraceCtx returns the value stored with SetTraceCtx (nil when untraced —
// the zero-cost fast-path check instrumentation relies on).
func (p *Proc) TraceCtx() any { return p.traceCtx }

// Now is shorthand for p.Env().Now().
func (p *Proc) Now() time.Duration { return p.env.now }

// Spawn starts a new process running fn at the current virtual time. The
// process begins execution when the scheduler reaches its start event during
// Run or RunAll. Its Proc is the one fn is passed: once fn returns, the next
// Spawn may hand it out again, so nothing may keep it past that.
func (e *Env) Spawn(name string, fn func(p *Proc)) { e.SpawnAt(e.now, name, fn) }

// SpawnAt starts a new process running fn at virtual time at.
func (e *Env) SpawnAt(at time.Duration, name string, fn func(p *Proc)) {
	if e.closed {
		return
	}
	e.live++
	e.schedule(event{at: at, task: (*resume)(e.procs.Take(Proc{env: e, name: name, fn: fn}))})
}

// coroutine is the stack a process runs on. It takes one process after
// another: between two it sits on Env.idle, parked in loop's yield.
type coroutine struct {
	proc  *Proc                   // the process to run at the next resume, then the one running
	next  func() (struct{}, bool) // scheduler side: resume until the next yield
	stop  func()                  // scheduler side: make the pending yield return false
	yield func(struct{}) bool     // process side: back to the scheduler; false is the kill signal
}

// loop is the coroutine's body: run the process step handed over, park idle,
// repeat, until the process or the parked coroutine itself is stopped.
func (c *coroutine) loop(yield func(struct{}) bool) {
	c.yield = yield
	for c.run() && yield(struct{}{}) {
	}
}

// run executes c.proc, schedules its restart if it asked for one, and parks c
// idle. It reports false after a kill (c has been stopped); an application
// panic or runtime.Goexit ends c through iter.Pull, which re-raises either on
// the scheduler, inside the next or stop call that resumed the process.
func (c *coroutine) run() (parked bool) {
	p, e := c.proc, c.proc.env
	defer func() {
		if parked {
			return
		}
		p.co, p.fn = nil, nil // a stale *Proc must not pin fn's captured scope
		e.live--
		if r := recover(); r != nil && r != any(errKilled) {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}()
	p.fn(p)
	c.proc, p.co = nil, nil
	if p.restart {
		p.restart = false
		e.schedule(event{at: p.restartAt, task: (*resume)(p)})
	} else {
		e.live--
		e.procs.Put(p)
	}
	e.idle = append(e.idle, c)
	return true
}

// step transfers control to p and returns when p blocks or finishes. Each
// run's first step takes an idle coroutine, or makes one.
func (e *Env) step(p *Proc) {
	c := p.co
	if c == nil {
		if n := len(e.idle); n > 0 {
			c = e.idle[n-1]
			e.idle = e.idle[:n-1]
		} else {
			c = new(coroutine)
			c.next, c.stop = iter.Pull(c.loop)
			e.coros = append(e.coros, c)
		}
		c.proc, p.co = p, c
	}
	e.curr = p
	c.next()
	e.curr = nil
}

// pause yields control from the running process back to the scheduler and
// blocks until the process is resumed. It panics with errKilled if the
// environment was closed while the process was blocked.
func (p *Proc) pause() {
	if !p.co.yield(struct{}{}) {
		panic(errKilled)
	}
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	at := e.now + d
	// In place when the wake-up is what the dispatch loop would pop next (a
	// queued event at the same instant has a lower seq and goes first, hence
	// the strict <): counted as scheduled and dispatched, on this stack.
	if next, queued := e.events.nextAt(); !e.closed && at <= e.horizon && (!queued || at < next) {
		e.seq++
		e.now = at
		e.dispatched++
		return
	}
	e.schedule(event{at: at, task: (*resume)(p)})
	p.pause()
}

// Run executes events in timestamp order until the virtual clock would pass
// until, until no events remain, or until Close has been called. The clock is
// left at until (it never moves backwards).
func (e *Env) Run(until time.Duration) {
	e.dispatch(until)
	if e.now < until {
		e.now = until
	}
}

// RunAll executes events until none remain or Close is called.
func (e *Env) RunAll() { e.dispatch(math.MaxInt64) }

// dispatch is the scheduler loop: pop events in (at, seq) order and run them,
// none later than horizon.
func (e *Env) dispatch(horizon time.Duration) {
	e.horizon = horizon
	for !e.closed {
		at, queued := e.events.nextAt()
		if !queued && e.live == 0 {
			// Every coroutine is idle: an Env dropped now, without Close, must
			// hold no goroutine. (With a process blocked for good it needs Close.)
			e.stopCoroutines()
		}
		if !queued || at > horizon {
			return
		}
		ev := e.events.pop()
		e.now = ev.at
		e.dispatched++
		ev.task.Fire(e)
	}
}

// stopCoroutines ends every coroutine: an idle one returns from its loop, one
// running a process unwinds it (its deferred functions run).
func (e *Env) stopCoroutines() {
	for _, c := range e.coros {
		c.stop()
	}
	e.coros, e.idle = nil, nil
}

// Close terminates the simulation: every live process is unwound (its
// deferred functions run) and no further events execute. Close must not be
// called from inside a process; call it after Run/RunAll returns. It is
// idempotent.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.stopCoroutines()
	e.live = 0 // a process that never took its first step has no stack to unwind
	// Pending events — raw callbacks and task firings included — are
	// dropped, never executed: tasks have no stack to unwind, so Close
	// for them means "will not fire" (pinned by TestTaskCloseSemantics).
	e.events.reset()
}

// Promise is a write-once container used for request/response rendezvous
// between processes. The zero value is not usable; create promises with
// NewPromise.
type Promise[T any] struct {
	env      *Env
	resolved bool
	value    T
	err      error

	// The overwhelmingly common case is a single waiting process (one
	// request, one reply), so the first waiter is stored inline and the
	// slice is only allocated when a second process awaits the same promise.
	waiter  *Proc
	waiters []*Proc
}

// NewPromise returns an unresolved promise bound to e.
func NewPromise[T any](e *Env) *Promise[T] {
	return &Promise[T]{env: e}
}

// Resolve fulfills the promise with v and wakes all waiters at the current
// virtual time. Resolving an already-resolved promise is a no-op.
func (pr *Promise[T]) Resolve(v T) { pr.complete(v, nil) }

// Fail completes the promise with an error and wakes all waiters.
func (pr *Promise[T]) Fail(err error) {
	var zero T
	pr.complete(zero, err)
}

func (pr *Promise[T]) complete(v T, err error) {
	if pr.resolved {
		return
	}
	pr.resolved = true
	pr.value = v
	pr.err = err
	e := pr.env
	if pr.waiter != nil {
		e.schedule(event{at: e.now, task: (*resume)(pr.waiter)})
		pr.waiter = nil
	}
	for _, w := range pr.waiters {
		e.schedule(event{at: e.now, task: (*resume)(w)})
	}
	pr.waiters = nil
}

// Await blocks the process until the promise resolves, returning its value
// and error. If the promise is already resolved it returns immediately
// without yielding.
func Await[T any](p *Proc, pr *Promise[T]) (T, error) {
	if !pr.resolved {
		if pr.waiter == nil && len(pr.waiters) == 0 {
			pr.waiter = p
		} else {
			pr.waiters = append(pr.waiters, p)
		}
		p.pause()
	}
	return pr.value, pr.err
}

// Resource models a server with cap identical slots. Processes acquire a
// slot, hold it for their service time, and release it; excess arrivals wait
// in FIFO order. It is the building block for modeling CPU contention.
type Resource struct {
	env   *Env
	cap   int
	inUse int
	queue []*Proc
	head  int // queue[head:] wait; Release compacts once half the array is served

	// Accounting for utilization reporting.
	busy       time.Duration
	lastChange time.Duration
}

// NewResource returns a resource with cap slots (cap must be >= 1).
func NewResource(e *Env, cap int) *Resource {
	if cap < 1 {
		cap = 1
	}
	return &Resource{env: e, cap: cap}
}

func (r *Resource) account() {
	now := r.env.now
	r.busy += time.Duration(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

// Utilization returns the mean fraction of slots held since the start of the
// run, in [0, 1].
func (r *Resource) Utilization() float64 {
	if r.env.now == 0 {
		return 0
	}
	busy := r.busy + time.Duration(r.inUse)*(r.env.now-r.lastChange)
	return float64(busy) / float64(time.Duration(r.cap)*r.env.now)
}

// Acquire blocks until a slot is available and takes it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap {
		r.account()
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.pause()
	// Slot was transferred to us by Release; accounting already done there.
}

// Release frees a slot, handing it to the longest-waiting process if any.
func (r *Resource) Release() {
	if r.head < len(r.queue) {
		next := r.queue[r.head]
		if r.head++; 2*r.head >= len(r.queue) {
			r.queue, r.head = r.queue[:copy(r.queue, r.queue[r.head:])], 0
		}
		// The slot transfers directly: inUse stays constant.
		r.env.schedule(event{at: r.env.now, task: (*resume)(next)})
		return
	}
	r.account()
	r.inUse--
}

// Use acquires a slot, holds it for service, and releases it. It models one
// unit of work on a queued server.
func (r *Resource) Use(p *Proc, service time.Duration) {
	r.Acquire(p)
	p.Sleep(service)
	r.Release()
}

// Free is a free list of per-call envelopes or records, owned by an object
// of one Env.
type Free[T any] struct{ free []*T }

// Take returns a *T holding v, a recycled one when there is one.
func (f *Free[T]) Take(v T) (p *T) {
	if p = f.Reuse(); p == nil {
		p = new(T)
	}
	*p = v
	return p
}

// Put zeroes v and keeps it for a later Take.
func (f *Free[T]) Put(v *T) {
	*v = *new(T)
	f.Keep(v)
}

// Reuse returns a *T Keep gave back, as Keep left it, or nil when there is
// none. A list is used through Take and Put or through Reuse and Keep.
func (f *Free[T]) Reuse() (p *T) {
	if n := len(f.free); n > 0 {
		f.free, p = f.free[:n-1], f.free[n-1]
	}
	return p
}

// Keep keeps v for a later Reuse without zeroing it: for a record holding
// what was bound when it was made (a method value on itself), which Put
// would lose. The caller clears what v must not keep alive.
func (f *Free[T]) Keep(v *T) { f.free = append(f.free, v) }
