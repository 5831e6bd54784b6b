package sim

import "time"

// Task is the closure-free fast path for event-driven state machines: the
// engine stores the Task value in the event slot and calls Fire directly when
// its deadline arrives — no coroutine, no stack switch, no per-event
// closure allocation. A million idle sessions as tasks cost their struct
// bytes, not a coroutine stack apiece.
//
// Contract versus Proc:
//
//   - Fire runs on the scheduler's stack. It must not block: Sleep, Await,
//     Resource.Acquire and every other pausing operation are off-limits.
//     "Waiting" is expressed by rescheduling yourself with AtTask/AfterTask
//     and returning.
//   - A task holds control until Fire returns; it may schedule any mix of
//     events, tasks and processes, which run in (at, seq) order as usual.
//   - Close drops pending task firings without calling Fire — tasks have no
//     stack to unwind, so there is no kill notification. State machines
//     needing teardown must keep their own registry outside the engine.
type Task interface {
	Fire(e *Env)
}

// AtTask schedules t to fire at virtual time at (clamped to now if in the
// past). On a closed environment it is a no-op, mirroring At.
func (e *Env) AtTask(at time.Duration, t Task) { e.schedule(event{at: at, task: t}) }

// AfterTask schedules t to fire d from now.
func (e *Env) AfterTask(d time.Duration, t Task) { e.AtTask(e.now+d, t) }
