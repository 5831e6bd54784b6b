package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestWheelMatchesHeap is the heap-vs-wheel equivalence property test: random
// interleaved push/pop schedules are replayed through the timerQueue and
// through a bare eventHeap (trivially correct (at, seq) order) and the pop
// sequences must be identical. Schedules cover the regimes that matter:
// deadlines at now, within the wheel horizon, far beyond it (overflow +
// migrate), pushes interleaved mid-drain, and — what Proc.Sleep's in-place
// clock advance and Run stopping at its horizon do — a peek followed by
// moving now forward without a pop and pushing relative to the new now,
// which is only safe because the peek never migrates.
func TestWheelMatchesHeap(t *testing.T) {
	const (
		trials  = 50
		ops     = 2000
		horizon = time.Duration(wheelSlots) << wheelShift
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var q timerQueue
		q.memoTick = -1
		var oracle eventHeap
		var now time.Duration
		var seq uint64

		push := func() {
			var delay time.Duration
			switch rng.Intn(10) {
			case 0: // at now exactly
				delay = 0
			case 1, 2: // far beyond the horizon: exercises overflow + migrate
				delay = horizon + time.Duration(rng.Int63n(int64(10*horizon)))
			case 3: // straddling the horizon boundary
				delay = horizon - time.Duration(rng.Int63n(int64(4<<wheelShift)))
			default: // inside the wheel, biased toward near deadlines
				delay = time.Duration(rng.Int63n(int64(horizon)))
			}
			seq++
			ev := event{at: now + delay, seq: seq}
			q.push(ev, now)
			oracle.push(ev)
		}

		// advance peeks, moves now to somewhere short of the earliest event
		// and pushes from there.
		advance := func() {
			at, ok := q.nextAt()
			if !ok || at != oracle[0].at {
				t.Fatalf("trial %d: nextAt = (%v, %v), heap top is %v", trial, at, ok, oracle[0].at)
			}
			if q.cursor > tickOf(now) {
				t.Fatalf("trial %d: peek moved cursor to tick %d, past now's tick %d", trial, q.cursor, tickOf(now))
			}
			if at > now {
				now += time.Duration(rng.Int63n(int64(at - now)))
			}
			push()
		}

		// The wheel-empty / overflow-non-empty case, deterministically: a far
		// push into an empty queue lands in overflow.
		now = time.Duration(trial) * horizon
		seq++
		far := event{at: now + 2*horizon, seq: seq}
		q.push(far, now)
		oracle.push(far)
		if q.size != 0 || len(q.overflow) != 1 {
			t.Fatalf("trial %d: far push landed in the wheel", trial)
		}
		advance()

		for i := 0; i < ops; i++ {
			switch r := rng.Intn(6); {
			case len(oracle) == 0 || r >= 3:
				push()
				continue
			case r == 2:
				advance()
				continue
			}
			got, want := q.pop(), oracle.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d op %d: wheel popped (at=%v seq=%d), heap popped (at=%v seq=%d)",
					trial, i, got.at, got.seq, want.at, want.seq)
			}
			now = got.at
		}
		// Drain both completely.
		for len(oracle) > 0 {
			got, want := q.pop(), oracle.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d drain: wheel popped (at=%v seq=%d), heap popped (at=%v seq=%d)",
					trial, got.at, got.seq, want.at, want.seq)
			}
			now = got.at
		}
		if q.len() != 0 {
			t.Fatalf("trial %d: wheel reports %d events after drain", trial, q.len())
		}
	}
}

// TestWheelNextAt checks the peek path against pops, including across
// overflow migration.
func TestWheelNextAt(t *testing.T) {
	var q timerQueue
	q.memoTick = -1
	if _, ok := q.nextAt(); ok {
		t.Fatal("empty queue reported a next event")
	}
	horizon := time.Duration(wheelSlots) << wheelShift
	times := []time.Duration{5 * horizon, time.Millisecond, 3 * horizon, 0, horizon + 1}
	for i, at := range times {
		q.push(event{at: at, seq: uint64(i)}, 0)
	}
	prev := time.Duration(-1)
	for q.len() > 0 {
		at, ok := q.nextAt()
		if !ok {
			t.Fatal("non-empty queue reported no next event")
		}
		ev := q.pop()
		if ev.at != at {
			t.Fatalf("nextAt said %v, pop returned %v", at, ev.at)
		}
		if ev.at < prev {
			t.Fatalf("pop order regressed: %v after %v", ev.at, prev)
		}
		prev = ev.at
	}
}

// TestWheelReanchor pins the empty-queue re-anchor: after the queue fully
// drains and virtual time advances far past the old window, a new push must
// land in a wheel slot relative to the new now, not the stale window.
func TestWheelReanchor(t *testing.T) {
	var q timerQueue
	q.memoTick = -1
	q.push(event{at: time.Millisecond, seq: 1}, 0)
	now := q.pop().at
	// Jump the clock way past the old window, then push a near deadline.
	now += 100 * time.Duration(wheelSlots) << wheelShift
	q.push(event{at: now + time.Millisecond, seq: 2}, now)
	if len(q.overflow) != 0 {
		t.Fatal("near-deadline push after re-anchor landed in overflow")
	}
	if ev := q.pop(); ev.seq != 2 {
		t.Fatalf("popped seq %d, want 2", ev.seq)
	}
}

// TestWheelKeepsOneArrayPerOccupiedSlot pins the slot free list: over a run
// several horizons long that touches every slot, the backing arrays the
// queue holds (non-nil slots plus the free list) never exceed the peak
// number of slots occupied at the same time.
func TestWheelKeepsOneArrayPerOccupiedSlot(t *testing.T) {
	var q timerQueue
	q.memoTick = -1
	rng := rand.New(rand.NewSource(1))
	held := func() (occupied, arrays int) {
		for i := range q.slots {
			if len(q.slots[i]) > 0 {
				occupied++
			}
			if q.slots[i] != nil {
				arrays++
			}
		}
		return occupied, arrays + len(q.free)
	}
	var now time.Duration
	var seq uint64
	peak := 0
	const pending = 64 // events in flight, each rescheduled within a quarter horizon
	reschedule := func() {
		seq++
		delay := time.Duration(rng.Int63n(int64(wheelSlots/4) << wheelShift))
		q.push(event{at: now + delay, seq: seq}, now)
	}
	for i := 0; i < pending; i++ {
		reschedule()
	}
	peak, _ = held()
	for now < 5*time.Duration(wheelSlots)<<wheelShift {
		now = q.pop().at
		reschedule()
		occupied, arrays := held()
		if occupied > peak {
			peak = occupied
		}
		if arrays > peak {
			t.Fatalf("at %v the queue holds %d slot arrays, peak occupancy is %d", now, arrays, peak)
		}
	}
	if peak > pending {
		t.Fatalf("peak occupancy %d exceeds the %d events in flight", peak, pending)
	}
}
