package sim

import (
	"math/rand"
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
					p.Sleep(time.Duration(p.Rand().Intn(5)+1) * time.Millisecond)
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
	if r.Cap() != 1 {
		t.Fatalf("cap = %d, want clamped to 1", r.Cap())
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
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic from RunAll")
		}
	}()
	e.RunAll()
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
				if r.InUse() > r.Cap() {
					violated = true
				}
				p.Sleep(service)
				r.Release()
				served++
			})
		}
		e.RunAll()
		return !violated && served == n && r.InUse() == 0
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

func TestMustAwaitPanicsOnError(t *testing.T) {
	e := NewEnv(1)
	pr := NewPromise[int](e)
	pr.Fail(errBoom)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected MustAwait panic to surface")
		}
	}()
	e.Spawn("p", func(p *Proc) { MustAwait(p, pr) })
	e.RunAll()
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
	e.Spawn("waiter", func(p *Proc) {
		got = MustAwait(p, pr)
	})
	e.At(time.Second, func() { pr.Resolve(7) })
	e.RunAll()
	if got != 7 {
		t.Fatalf("got = %d", got)
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
		v := MustAwait(p, a)
		p.Sleep(10 * time.Millisecond)
		b.Resolve(v + 1)
	})
	var final int
	var at time.Duration
	e.Spawn("stage3", func(p *Proc) {
		final = MustAwait(p, b)
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
		if p.Name() != "named" || p.Env() != e {
			t.Error("accessors broken")
		}
		if p.Rand() != e.Rand() {
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
	var inProc, inCallback *Proc
	e.Spawn("p", func(p *Proc) {
		inProc = e.Current()
	})
	e.After(time.Millisecond, func() { inCallback = e.Current() })
	e.RunAll()
	e.Close()
	if inProc == nil || inProc.Name() != "p" {
		t.Fatalf("Current inside process = %v", inProc)
	}
	if inCallback != nil {
		t.Fatalf("Current inside raw callback = %v, want nil", inCallback)
	}
}
