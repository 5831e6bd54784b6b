package sim

import "time"

// Timer-wheel parameters. Slot granularity is a power of two so the
// time-to-tick conversion is a shift, not a division: 2^22 ns ≈ 4.19 ms per
// slot, 4096 slots ≈ 17.2 s of near horizon. The paper workload's 8-second
// think-time sleeps — the bulk of all scheduled events at scale — land inside
// the wheel; rarer far timers (metrics ticks, fault schedules, long warm-up
// alarms) overflow to a min-heap and migrate into the wheel as it advances.
const (
	wheelShift = 22
	wheelSlots = 4096
	wheelMask  = wheelSlots - 1

	// slotCap is the room a slot's first backing array is made with, in
	// one allocation where append would take four (1, 2, 4, 8 events).
	slotCap = 8
)

// timerQueue is the engine's event queue: a near-horizon timer wheel whose
// slots are small (at, seq)-ordered heaps, plus an overflow heap for events
// beyond the horizon. It fires events in exactly the order the single global
// heap did — the (at, seq) total order — which TestWheelMatchesHeap pins by
// replaying random schedules through both structures.
//
// Invariants (checked reasoning, not runtime asserts):
//
//   - cursor ≤ tick(now) ≤ tick(ev.at) for every queued event: pushes are
//     clamped to virtual now by the Env, and cursor only advances to ticks of
//     popped events — migrate runs inside pop, never inside a peek — or
//     re-anchors at now when the queue is empty.
//   - Wheel slots hold only ticks in [cursor, windowEnd); the overflow heap
//     holds only ticks ≥ windowEnd. windowEnd - cursor ≤ wheelSlots, so a
//     slot holds events of exactly one tick at a time and its heap top is the
//     global minimum whenever its tick is the next non-empty one.
//   - windowEnd advances only when the wheel drains (migrate), so an event
//     pushed to overflow can never sort before a wheel event.
//
// Per-event cost is a push and a pop on a slot-sized heap (hundreds of
// entries at a million sessions, versus the whole pending set for the global
// heap) and the slot scan amortizes to O(1) per event plus one wheel sweep
// per horizon.
type timerQueue struct {
	slots    *[wheelSlots]eventHeap // 96 KB: made by the first push; reset drops it, so a closed Env a registry still pins keeps none
	overflow eventHeap

	// free holds the backing arrays of slots that pop emptied. An empty slot
	// is nil and its first push takes an array from here, so the wheel keeps
	// one array per slot occupied at the same time, not per slot ever touched.
	free []eventHeap

	size      int   // events resident in wheel slots (excludes overflow)
	cursor    int64 // all queued events have tick ≥ cursor
	windowEnd int64 // wheel covers ticks [cursor, windowEnd)

	// memoTick caches the next non-empty slot's tick so the dispatch loop's
	// peek-then-pop pair scans the wheel once, not twice. -1 means unknown.
	memoTick int64
}

func tickOf(at time.Duration) int64 { return int64(at) >> wheelShift }

// len returns the number of queued events.
func (q *timerQueue) len() int { return q.size + len(q.overflow) }

// push enqueues ev. now is the current virtual time, used to re-anchor the
// wheel window when the queue is empty (ev.at ≥ now always holds — the Env
// clamps past deadlines).
func (q *timerQueue) push(ev event, now time.Duration) {
	if q.size == 0 && len(q.overflow) == 0 {
		if q.slots == nil {
			q.slots = new([wheelSlots]eventHeap)
		}
		q.cursor = tickOf(now)
		q.windowEnd = q.cursor + wheelSlots
		q.memoTick = -1
	}
	tick := tickOf(ev.at)
	if tick < q.windowEnd {
		q.pushSlot(tick, ev)
		if q.memoTick >= 0 && tick < q.memoTick {
			q.memoTick = tick
		}
		return
	}
	q.overflow.push(ev)
}

// pushSlot files ev, whose tick is inside the window, in its wheel slot.
func (q *timerQueue) pushSlot(tick int64, ev event) {
	h := &q.slots[tick&wheelMask]
	if *h == nil {
		if n := len(q.free); n > 0 {
			*h, q.free[n-1], q.free = q.free[n-1], nil, q.free[:n-1]
		} else {
			*h = make(eventHeap, 0, slotCap)
		}
	}
	h.push(ev)
	q.size++
}

// migrate re-anchors the window at the overflow heap's earliest tick and
// moves every overflow event inside the new window into wheel slots. Only
// called when the wheel is empty and the overflow is not.
func (q *timerQueue) migrate() {
	q.cursor = tickOf(q.overflow[0].at)
	q.windowEnd = q.cursor + wheelSlots
	for len(q.overflow) > 0 && tickOf(q.overflow[0].at) < q.windowEnd {
		ev := q.overflow.pop()
		q.pushSlot(tickOf(ev.at), ev)
	}
	q.memoTick = q.cursor
}

// nextTick returns the tick of the earliest event in the wheel, which must be
// non-empty.
func (q *timerQueue) nextTick() int64 {
	if q.memoTick >= 0 {
		return q.memoTick
	}
	for t := q.cursor; ; t++ {
		if len(q.slots[t&wheelMask]) > 0 {
			q.memoTick = t
			return t
		}
	}
}

// nextAt returns the earliest queued event's deadline without removing it.
// It never migrates: that moves cursor to the overflow's earliest tick, and a
// caller that then stops the clock short of it (Proc.Sleep's in-place
// advance, Run at its horizon) would file its next push behind the cursor.
func (q *timerQueue) nextAt() (time.Duration, bool) {
	if q.size > 0 {
		return q.slots[q.nextTick()&wheelMask][0].at, true
	}
	if len(q.overflow) > 0 {
		return q.overflow[0].at, true
	}
	return 0, false
}

// pop removes and returns the earliest event by (at, seq), migrating overflow
// events into the wheel first if it is empty. The queue must be non-empty.
func (q *timerQueue) pop() event {
	if q.size == 0 {
		q.migrate()
	}
	t := q.nextTick()
	q.cursor = t
	h := &q.slots[t&wheelMask]
	ev := h.pop()
	q.size--
	if len(*h) == 0 {
		q.free = append(q.free, *h)
		*h = nil
		q.memoTick = -1
	}
	return ev
}

// reset drops every queued event and releases slot backing arrays.
func (q *timerQueue) reset() {
	q.slots, q.overflow, q.free = nil, nil, nil
	q.size = 0
	q.memoTick = -1
}
