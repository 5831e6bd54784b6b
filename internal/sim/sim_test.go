package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := NewEnv(1)
	var got []int
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(20*time.Millisecond, func() { got = append(got, 2) })
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestTiesBreakByScheduleOrder(t *testing.T) {
	e := NewEnv(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, got)
		}
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	e := NewEnv(1)
	ran := 0
	e.At(time.Second, func() { ran++ })
	e.At(3*time.Second, func() { ran++ })
	e.Run(2 * time.Second)
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Close()
}

func TestPastEventsClampToNow(t *testing.T) {
	e := NewEnv(1)
	e.At(time.Second, func() {
		e.At(0, func() {
			if e.Now() != time.Second {
				t.Errorf("past event ran at %v, want clamped to 1s", e.Now())
			}
		})
	})
	e.RunAll()
}

func TestProcSleep(t *testing.T) {
	e := NewEnv(1)
	var marks []time.Duration
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * time.Millisecond)
			marks = append(marks, p.Now())
		}
	})
	e.RunAll()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("mark[%d] = %v, want %v", i, marks[i], want[i])
		}
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d after RunAll, want 0", e.Live())
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	e.RunAll()
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func(seed int64) []string {
		e := NewEnv(seed)
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Duration(p.env.rng.Intn(5)+1) * time.Millisecond)
					trace = append(trace, name)
				}
			})
		}
		e.RunAll()
		return trace
	}
	t1, t2 := run(7), run(7)
	if len(t1) != 9 || len(t2) != 9 {
		t.Fatalf("trace lengths: %d, %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("nondeterministic trace: %v vs %v", t1, t2)
		}
	}
}

func TestPromiseResolveWakesWaiters(t *testing.T) {
	e := NewEnv(1)
	pr := NewPromise[int](e)
	var got []int
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(p *Proc) {
			v, err := Await(p, pr)
			if err != nil {
				t.Errorf("Await error: %v", err)
			}
			got = append(got, v)
			if p.Now() != 50*time.Millisecond {
				t.Errorf("woke at %v, want 50ms", p.Now())
			}
		})
	}
	e.Spawn("resolver", func(p *Proc) {
		p.Sleep(50 * time.Millisecond)
		pr.Resolve(42)
	})
	e.RunAll()
	if len(got) != 3 {
		t.Fatalf("got %d wakeups, want 3", len(got))
	}
	for _, v := range got {
		if v != 42 {
			t.Fatalf("value = %d, want 42", v)
		}
	}
}

func TestAwaitResolvedReturnsImmediately(t *testing.T) {
	e := NewEnv(1)
	pr := NewPromise[string](e)
	pr.Resolve("x")
	e.Spawn("p", func(p *Proc) {
		before := p.Now()
		v, _ := Await(p, pr)
		if v != "x" || p.Now() != before {
			t.Errorf("Await on resolved promise yielded: v=%q t=%v", v, p.Now())
		}
	})
	e.RunAll()
}

func TestPromiseFail(t *testing.T) {
	e := NewEnv(1)
	pr := NewPromise[int](e)
	e.Spawn("p", func(p *Proc) {
		_, err := Await(p, pr)
		if err == nil || err.Error() != "boom" {
			t.Errorf("err = %v, want boom", err)
		}
	})
	e.Spawn("failer", func(p *Proc) { pr.Fail(errBoom) })
	e.RunAll()
}

var errBoom = errString("boom")

type errString string

func (e errString) Error() string { return string(e) }

func TestPromiseDoubleResolveIsNoop(t *testing.T) {
	e := NewEnv(1)
	pr := NewPromise[int](e)
	pr.Resolve(1)
	pr.Resolve(2)
	e.Spawn("p", func(p *Proc) {
		v, _ := Await(p, pr)
		if v != 1 {
			t.Errorf("v = %d, want first resolution 1", v)
		}
	})
	e.RunAll()
}

func TestResourceQueuesFIFO(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, 1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			order = append(order, name)
		})
	}
	e.RunAll()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms (serialized)", e.Now())
	}
}

// Waiters are served in arrival order across many drain and refill cycles,
// with the queue growing, draining and compacting between them: every
// waiter gets the slot in the order it asked for it.
func TestResourceFIFOAcrossRefills(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, 1)
	var order []int
	next := 0
	for cycle := 0; cycle < 40; cycle++ {
		// Waves of 1..7 arrivals, so drains and partial refills interleave.
		wave := 1 + cycle%7
		for i := 0; i < wave; i++ {
			id := next
			next++
			e.Spawn("w", func(p *Proc) {
				p.Sleep(time.Duration(cycle) * time.Second)
				r.Use(p, time.Duration(1+id%3)*time.Millisecond)
				order = append(order, id)
			})
		}
	}
	e.RunAll()
	if len(order) != next {
		t.Fatalf("%d of %d waiters served", len(order), next)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("service order %v, want arrival order", order)
		}
	}
}

func TestResourceParallelSlots(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, 3)
	done := 0
	for i := 0; i < 3; i++ {
		e.Spawn("p", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			done++
		})
	}
	e.RunAll()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("clock = %v, want 10ms (parallel)", e.Now())
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, 2)
	e.Spawn("p", func(p *Proc) {
		r.Use(p, 50*time.Millisecond)
	})
	e.Spawn("idle", func(p *Proc) { p.Sleep(100 * time.Millisecond) })
	e.RunAll()
	// One of two slots busy for 50ms out of 100ms => 25%.
	if u := r.Utilization(); u < 0.24 || u > 0.26 {
		t.Fatalf("utilization = %v, want ~0.25", u)
	}
}

func TestResourceCapFloor(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, 0)
	if r.cap != 1 {
		t.Fatalf("cap = %d, want clamped to 1", r.cap)
	}
}

func TestSpawnFromWithinProcess(t *testing.T) {
	e := NewEnv(1)
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(5 * time.Millisecond)
			childRan = true
			if c.Now() != 10*time.Millisecond {
				t.Errorf("child finished at %v, want 10ms", c.Now())
			}
		})
	})
	e.RunAll()
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestCloseUnwindsBlockedProcesses(t *testing.T) {
	e := NewEnv(1)
	cleaned := 0
	pr := NewPromise[int](e) // never resolved
	for i := 0; i < 4; i++ {
		e.Spawn("stuck", func(p *Proc) {
			defer func() { cleaned++ }()
			Await(p, pr)
			t.Error("process resumed past unresolved promise")
		})
	}
	e.Run(time.Second)
	e.Close()
	if cleaned != 4 {
		t.Fatalf("cleaned = %d, want 4 (defers must run on Close)", cleaned)
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d after Close, want 0", e.Live())
	}
}

func TestCloseBeforeFirstResume(t *testing.T) {
	e := NewEnv(1)
	e.SpawnAt(time.Hour, "late", func(p *Proc) {
		t.Error("late process body ran")
	})
	e.Run(time.Second)
	e.Close()
	if e.Live() != 0 {
		t.Fatalf("live = %d, want 0", e.Live())
	}
}

func TestCloseIdempotent(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("p", func(p *Proc) { p.Sleep(time.Hour) })
	e.Run(time.Second)
	e.Close()
	e.Close()
}

func TestProcessPanicSurfacesOnScheduler(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("idler", func(p *Proc) { p.Sleep(time.Hour) })
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	defer func() {
		if r, want := recover(), `sim: process "bad" panicked: kaboom`; r != any(want) {
			t.Fatalf("RunAll panicked with %v, want %q", r, want)
		}
		e.Close() // the environment still unwinds its other processes
		if e.Live() != 0 {
			t.Fatalf("live = %d after Close, want 0", e.Live())
		}
	}()
	e.RunAll()
}

// TestGoexitInProcessEndsCaller pins what t.FailNow inside a process needs:
// runtime.Goexit on a process's stack ends the goroutine driving the
// simulation (running its deferred calls) instead of leaving it waiting for a
// process that will never hand control back.
func TestGoexitInProcessEndsCaller(t *testing.T) {
	ended := make(chan struct{})
	returned := false
	go func() {
		defer close(ended)
		e := NewEnv(1)
		e.Spawn("quitter", func(p *Proc) {
			p.Sleep(time.Millisecond)
			runtime.Goexit()
		})
		e.RunAll()
		returned = true
	}()
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("RunAll hangs after a process called runtime.Goexit")
	}
	if returned {
		t.Fatal("RunAll returned normally after a process called runtime.Goexit")
	}
}

// TestNoGoroutineOutlivesTheRun pins the idle pool's lifetime: coroutines are
// goroutines, and none may survive Close — or RunAll reaching quiescence with
// no Close at all, which is how a dropped Env stays collectable.
func TestNoGoroutineOutlivesTheRun(t *testing.T) {
	// An upper bound, not an exact count: a goroutine of an earlier test may
	// still be on its way out when this is read.
	base := runtime.NumGoroutine()
	sleeper := func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Duration(1+p.env.rng.Intn(5)) * time.Millisecond)
		}
	}
	restarter := func() func(p *Proc) {
		runs := 0
		return func(p *Proc) {
			if runs++; runs <= 3 {
				p.RestartAt(p.Now() + time.Duration(1+p.env.rng.Intn(5))*time.Millisecond)
			}
		}
	}

	e := NewEnv(1)
	for i := 0; i < 8; i++ {
		e.Spawn("sleeper", sleeper)
		e.Spawn("restarter", restarter())
	}
	e.Run(time.Millisecond)
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("%d goroutines mid-run, %d before it: processes are not running on coroutines", n, base)
	}
	e.RunAll()
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after RunAll to quiescence, want at most %d", n, base)
	}

	e = NewEnv(1)
	never := NewPromise[int](e)
	for i := 0; i < 8; i++ {
		e.Spawn("sleeper", sleeper) // finished by Close time: idle coroutines
		e.Spawn("stuck", func(p *Proc) { Await(p, never) })
		e.SpawnAt(time.Hour, "late", sleeper)                          // never started: no coroutine
		e.Spawn("restarter", func(p *Proc) { p.RestartAt(time.Hour) }) // restart pending: no coroutine
	}
	e.Run(time.Second)
	e.Close()
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Close, want at most %d", n, base)
	}
	if e.Live() != 0 {
		t.Errorf("%d processes live after Close, want 0", e.Live())
	}
}

// TestCoroutineReuseStartsClean pins what a process that returned leaves
// behind: its coroutine and its Proc both serve the next Spawn, and the
// recycled Proc starts clean, with the new name, no trace context, no
// pending restart, and Current() pointing at it.
func TestCoroutineReuseStartsClean(t *testing.T) {
	e := NewEnv(1)
	var first *Proc
	e.Spawn("first", func(p *Proc) {
		first = p
		if p.Now() == 0 {
			p.SetTraceCtx("span of first")
			p.RestartAt(time.Millisecond / 2) // one restart, then it returns
		}
	})
	e.Spawn("driver", func(p *Proc) {
		p.Sleep(time.Millisecond) // first has returned: its coroutine is idle
		e.Spawn("second", func(q *Proc) {
			if q != first {
				t.Errorf("Spawn made a new Proc while the finished one was free")
			}
			if q.name != "second" || q.TraceCtx() != nil || q.restart {
				t.Errorf("recycled Proc started as %q with trace context %v, restart %t", q.name, q.TraceCtx(), q.restart)
			}
			if e.Current() != q {
				t.Errorf("Current() = %v inside second", e.Current())
			}
		})
		p.Sleep(time.Millisecond)
		if len(e.coros) != 2 || len(e.idle) != 1 {
			t.Errorf("%d coroutines, %d idle, after three processes never more than two at a time; want 2 and 1 (second reuses first's)",
				len(e.coros), len(e.idle))
		}
	})
	e.Run(time.Second)
	e.Close()
}

// TestEndedProcsNeverReused: the Proc of a process killed by Close or ended
// by a panic is never handed out again; only one whose function returned is.
func TestEndedProcsNeverReused(t *testing.T) {
	e := NewEnv(1)
	var bad, stuck *Proc
	never := NewPromise[int](e)
	e.Spawn("stuck", func(p *Proc) { stuck = p; Await(p, never) })
	e.Spawn("bad", func(p *Proc) { bad = p; panic("kaboom") })
	func() {
		defer func() { _ = recover() }()
		e.Run(time.Second)
	}()
	for i := range 4 {
		e.Spawn("next", func(p *Proc) {
			if p == bad {
				t.Errorf("spawn %d reran on the panicked process's Proc", i)
			}
		})
	}
	e.Run(2 * time.Second)
	e.Close()
	if slices.Contains(e.procs.free, bad) || slices.Contains(e.procs.free, stuck) {
		t.Error("a killed or panicked process's Proc is on the free list")
	}
	if stuck == nil || bad == nil || len(e.procs.free) == 0 {
		t.Fatalf("stuck %p, bad %p, %d free Procs: the processes did not run", stuck, bad, len(e.procs.free))
	}
}

func TestUtilizationZeroAtStart(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, 4)
	if u := r.Utilization(); u != 0 {
		t.Fatalf("utilization = %v at t=0, want 0", u)
	}
}

// Property: for any set of sleep durations, processes observe a monotonically
// nondecreasing clock and each process wakes exactly at the cumulative sum of
// its sleeps.
func TestPropertySleepAccumulates(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		e := NewEnv(99)
		ok := true
		e.Spawn("p", func(p *Proc) {
			var total time.Duration
			for _, r := range raw {
				d := time.Duration(r) * time.Microsecond
				p.Sleep(d)
				total += d
				if p.Now() != total {
					ok = false
				}
			}
		})
		e.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a resource never exceeds its capacity and serves all arrivals.
func TestPropertyResourceCapacityInvariant(t *testing.T) {
	f := func(capRaw uint8, nRaw uint8, seed int64) bool {
		capacity := int(capRaw%8) + 1
		n := int(nRaw%50) + 1
		e := NewEnv(seed)
		r := NewResource(e, capacity)
		served := 0
		violated := false
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			start := time.Duration(rng.Intn(100)) * time.Millisecond
			service := time.Duration(rng.Intn(20)+1) * time.Millisecond
			e.SpawnAt(start, "w", func(p *Proc) {
				r.Acquire(p)
				if r.inUse > r.cap {
					violated = true
				}
				p.Sleep(service)
				r.Release()
				served++
			})
		}
		e.RunAll()
		return !violated && served == n && r.inUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: events fire in nondecreasing timestamp order regardless of the
// order they were scheduled in.
func TestPropertyEventOrderInvariant(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEnv(1)
		var fired []time.Duration
		for _, r := range raw {
			at := time.Duration(r) * time.Microsecond
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOperationsAfterCloseAreInert(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("p", func(p *Proc) { p.Sleep(time.Hour) })
	e.Run(time.Second)
	e.Close()
	// Scheduling after Close must not execute anything.
	ran := false
	e.At(2*time.Second, func() { ran = true })
	e.Spawn("late", func(p *Proc) { ran = true })
	e.Run(time.Hour)
	e.RunAll()
	if ran {
		t.Fatal("events ran after Close")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Close", e.Pending())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEnv(1)
	var at time.Duration
	e.At(time.Second, func() {
		e.After(500*time.Millisecond, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 1500*time.Millisecond {
		t.Fatalf("After fired at %v, want 1.5s", at)
	}
}

func TestPromiseResolveFromEventCallback(t *testing.T) {
	e := NewEnv(1)
	pr := NewPromise[int](e)
	var got int
	var err error
	e.Spawn("waiter", func(p *Proc) {
		got, err = Await(p, pr)
	})
	e.At(time.Second, func() { pr.Resolve(7) })
	e.RunAll()
	if got != 7 || err != nil {
		t.Fatalf("got = %d, %v", got, err)
	}
}

func TestChainedPromises(t *testing.T) {
	e := NewEnv(1)
	a, b := NewPromise[int](e), NewPromise[int](e)
	e.Spawn("stage1", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		a.Resolve(1)
	})
	e.Spawn("stage2", func(p *Proc) {
		v, _ := Await(p, a)
		p.Sleep(10 * time.Millisecond)
		b.Resolve(v + 1)
	})
	var final int
	var at time.Duration
	e.Spawn("stage3", func(p *Proc) {
		final, _ = Await(p, b)
		at = p.Now()
	})
	e.RunAll()
	if final != 2 || at != 20*time.Millisecond {
		t.Fatalf("final=%d at=%v", final, at)
	}
}

func TestProcAccessors(t *testing.T) {
	e := NewEnv(99)
	e.Spawn("named", func(p *Proc) {
		if p.name != "named" || p.env != e {
			t.Error("Spawn did not record the name and env")
		}
		if e.Rand() != e.rng {
			t.Error("Rand accessor broken")
		}
		if p.Now() != e.Now() {
			t.Error("Now accessor broken")
		}
	})
	e.RunAll()
}

func TestTraceCtxSlotRoundTrips(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("p", func(p *Proc) {
		if p.TraceCtx() != nil {
			t.Error("fresh process has non-nil trace ctx")
		}
		v := &struct{ x int }{x: 7}
		p.SetTraceCtx(v)
		if p.TraceCtx() != any(v) {
			t.Error("trace ctx did not round-trip")
		}
		p.SetTraceCtx(nil)
		if p.TraceCtx() != nil {
			t.Error("trace ctx not cleared")
		}
	})
	e.RunAll()
	e.Close()
	if e.TraceHook() != nil {
		t.Fatal("fresh env has non-nil trace hook")
	}
	e.SetTraceHook("tracer")
	if e.TraceHook() != "tracer" {
		t.Fatal("trace hook did not round-trip")
	}
}

func TestEnvCurrentTracksRunningProc(t *testing.T) {
	e := NewEnv(1)
	var inCallback *Proc
	inProc := "never ran"
	e.Spawn("p", func(p *Proc) {
		// Read while p runs: once it returns, its Proc is the next Spawn's.
		if inProc = "another Proc"; e.Current() == p {
			inProc = p.name
		}
	})
	e.After(time.Millisecond, func() { inCallback = e.Current() })
	e.RunAll()
	e.Close()
	if inProc != "p" {
		t.Fatalf("Current inside process p: %s", inProc)
	}
	if inCallback != nil {
		t.Fatalf("Current inside raw callback = %v, want nil", inCallback)
	}
}

// scriptTask sleeps through a script of durations the way a process would,
// but as a self-rescheduling Task: AfterTask has no in-place fast path, so
// its log is the order oracle for Proc.Sleep's.
type scriptTask struct {
	id     int
	script []time.Duration
	next   int
	log    *[]string
}

func wakeLine(e *Env, id int) string {
	return fmt.Sprintf("%v id=%d dispatched=%d", e.Now(), id, e.Dispatched())
}

func (s *scriptTask) Fire(e *Env) {
	if s.next > 0 {
		*s.log = append(*s.log, wakeLine(e, s.id))
	}
	if s.next < len(s.script) {
		e.AfterTask(s.script[s.next], s)
		s.next++
	}
}

// TestSleepInPlaceMatchesQueuedOrder is the order oracle for the in-place
// clock advance: processes sleeping seeded-random durations — zero sleeps,
// ties between processes, sleeps past the wheel horizon, and a Run(until)
// boundary in the middle — must wake at the same times, in the same order and
// at the same Dispatched() count as tasks that schedule every one of those
// wake-ups through the queue.
func TestSleepInPlaceMatchesQueuedOrder(t *testing.T) {
	const wheelHorizon = time.Duration(wheelSlots) << wheelShift
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scripts := make([][]time.Duration, 1+rng.Intn(6))
		for i := range scripts {
			scripts[i] = make([]time.Duration, 1+rng.Intn(40))
			for k := range scripts[i] {
				switch rng.Intn(8) {
				case 0:
					scripts[i][k] = 0
				case 1, 2: // a coarse grid makes ties between processes common
					scripts[i][k] = time.Duration(1+rng.Intn(3)) * time.Millisecond
				case 3:
					scripts[i][k] = wheelHorizon + time.Duration(rng.Int63n(int64(wheelHorizon)))
				default:
					scripts[i][k] = time.Duration(rng.Intn(5000)) * time.Microsecond
				}
			}
		}
		until := time.Duration(rng.Intn(60)) * time.Millisecond

		drive := func(start func(e *Env, id int, script []time.Duration, log *[]string)) []string {
			var log []string
			e := NewEnv(seed)
			for id, script := range scripts {
				start(e, id, script, &log)
			}
			e.Run(until)
			log = append(log, fmt.Sprintf("Run(%v): now=%v dispatched=%d pending=%d", until, e.Now(), e.Dispatched(), e.Pending()))
			e.RunAll()
			log = append(log, fmt.Sprintf("RunAll: now=%v dispatched=%d pending=%d", e.Now(), e.Dispatched(), e.Pending()))
			e.Close()
			return log
		}
		tasks := drive(func(e *Env, id int, script []time.Duration, log *[]string) {
			e.AfterTask(0, &scriptTask{id: id, script: script, log: log})
		})
		sleepers := drive(func(e *Env, id int, script []time.Duration, log *[]string) {
			e.Spawn("sleeper", func(p *Proc) {
				for _, d := range script {
					p.Sleep(d)
					*log = append(*log, wakeLine(e, id))
				}
			})
		})
		// A restarting process keeps its place in the script off the stack and
		// gives its coroutine back across every wait.
		restarters := drive(func(e *Env, id int, script []time.Duration, log *[]string) {
			next := 0
			e.Spawn("restarter", func(p *Proc) {
				if next > 0 {
					*log = append(*log, wakeLine(e, id))
				}
				if next < len(script) {
					p.RestartAt(p.Now() + script[next])
					next++
				}
			})
		})
		for _, impl := range []struct {
			name string
			log  []string
		}{{"sleeping processes", sleepers}, {"restarting processes", restarters}} {
			if slices.Equal(impl.log, tasks) {
				continue
			}
			for i := range impl.log {
				if i >= len(tasks) || impl.log[i] != tasks[i] {
					t.Fatalf("seed %d: %s: entry %d of %d/%d differs:\n  %s\n  tasks: %s",
						seed, impl.name, i, len(impl.log), len(tasks), impl.log[i], append(tasks, "(none)")[i])
				}
			}
			t.Fatalf("seed %d: %s logged %d entries, tasks %d", seed, impl.name, len(impl.log), len(tasks))
		}
	}
}

// TestRestartRules pins what RestartAt keeps and when it does not apply: the
// restarted process is the same Proc (name, trace context, Current), and one
// killed by Close or ended by a panic is never scheduled again.
func TestRestartRules(t *testing.T) {
	t.Run("same Proc", func(t *testing.T) {
		e := NewEnv(1)
		runs := 0
		var proc *Proc
		e.Spawn("restarter", func(p *Proc) {
			if runs++; runs == 1 {
				proc = p
			}
			if p != proc || e.Current() != p || p.name != "restarter" {
				t.Errorf("run %d: on %p named %q (Current %p), want the spawned %p", runs, p, p.name, e.Current(), proc)
			}
			if runs == 1 {
				p.SetTraceCtx("span")
				p.RestartAt(p.Now() + time.Millisecond)
				return
			}
			if p.TraceCtx() != "span" || p.Now() != time.Millisecond {
				t.Errorf("restart at %v with trace context %v, want 1ms and the first run's", p.Now(), p.TraceCtx())
			}
		})
		e.RunAll()
		if runs != 2 || e.Live() != 0 {
			t.Errorf("%d runs, %d live after RunAll; want 2 and 0", runs, e.Live())
		}
		e.Close()
	})
	t.Run("killed by Close", func(t *testing.T) {
		e := NewEnv(1)
		never := NewPromise[int](e)
		runs := 0
		e.Spawn("stuck", func(p *Proc) {
			runs++
			p.RestartAt(p.Now() + time.Millisecond)
			Await(p, never)
		})
		e.Run(time.Second)
		e.Close()
		e.RunAll()
		if runs != 1 || e.Live() != 0 || e.Pending() != 0 {
			t.Errorf("%d runs, %d live, %d pending after Close; want 1, 0, 0", runs, e.Live(), e.Pending())
		}
	})
	t.Run("panicking", func(t *testing.T) {
		e := NewEnv(1)
		runs := 0
		e.Spawn("bad", func(p *Proc) {
			runs++
			p.RestartAt(p.Now() + time.Millisecond)
			panic("kaboom")
		})
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Error("the process's panic did not surface")
				}
			}()
			e.RunAll()
		}()
		if e.Live() != 0 || e.Pending() != 0 {
			t.Errorf("%d live, %d pending after the panic; want 0 and 0", e.Live(), e.Pending())
		}
		e.RunAll()
		e.Close()
		if runs != 1 {
			t.Errorf("a panicking process ran %d times, want 1", runs)
		}
	})
}
