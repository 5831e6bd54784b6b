package sim

// Engine hot-path microbenchmarks and allocation guards.
//
// Every experiment run dispatches millions of events and process switches,
// so regressions here multiply across the whole evaluation grid. The
// benchmarks report ns/op and allocs/op for the three hot paths (raw
// callback dispatch, process switching, promise rendezvous); the Test*Allocs
// guards pin the steady-state allocation counts so an accidental
// closure-per-event reintroduction fails the test suite rather than just
// slowing the tables down.
//
//	go test -bench=BenchmarkEngine -benchmem ./internal/sim

import (
	"testing"
	"time"

	"wadeploy/internal/race"
)

// BenchmarkEngineEventLoop measures scheduling plus dispatching one raw
// callback event: one heap push and one pop per iteration, batched so the
// heap stays shallow like a steady-state run.
func BenchmarkEngineEventLoop(b *testing.B) {
	env := NewEnv(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.After(time.Microsecond, fn)
		if env.Pending() >= 1024 {
			env.RunAll()
		}
	}
	env.RunAll()
	b.StopTimer()
	env.Close()
}

// BenchmarkEngineEventLoopDeep exercises the heap at depth: b.N events are
// all scheduled before any is dispatched, so push/pop cost includes the
// log(n) sift work of a congested queue.
func BenchmarkEngineEventLoopDeep(b *testing.B) {
	env := NewEnv(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.After(time.Duration(i)*time.Microsecond, fn)
	}
	env.RunAll()
	b.StopTimer()
	env.Close()
}

// BenchmarkEngineProcessSwitch measures one full process switch: the
// scheduler resumes a process, the process schedules its own wake-up and
// yields back. This is the Sleep/Await hot path.
func BenchmarkEngineProcessSwitch(b *testing.B) {
	env := NewEnv(1)
	env.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.RunAll()
	b.StopTimer()
	env.Close()
}

// BenchmarkEnginePromiseRoundTrip measures one request/response rendezvous:
// create a promise, schedule its resolution, await it. The promise object
// itself is the only expected allocation.
func BenchmarkEnginePromiseRoundTrip(b *testing.B) {
	env := NewEnv(1)
	var pr *Promise[int]
	resolve := func() { pr.Resolve(1) }
	b.ReportAllocs()
	env.Spawn("driver", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr = NewPromise[int](env)
			env.After(0, resolve)
			if MustAwait(p, pr) != 1 {
				b.Fail()
			}
		}
		b.StopTimer()
	})
	env.RunAll()
	env.Close()
}

// BenchmarkEngineResourceUse measures one Acquire/Sleep/Release cycle on an
// uncontended resource.
func BenchmarkEngineResourceUse(b *testing.B) {
	env := NewEnv(1)
	res := NewResource(env, 1)
	env.Spawn("worker", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res.Use(p, time.Microsecond)
		}
		b.StopTimer()
	})
	b.ReportAllocs()
	env.RunAll()
	env.Close()
}

// TestEventLoopAllocs pins the steady-state callback dispatch path at zero
// allocations per event once the heap's backing array has grown.
func TestEventLoopAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	env := NewEnv(1)
	fn := func() {}
	// Warm-up: grow the heap's backing array past anything the measured
	// loop needs so growth allocations don't count against steady state.
	for i := 0; i < 64; i++ {
		env.After(0, fn)
	}
	env.RunAll()
	avg := testing.AllocsPerRun(1000, func() {
		env.After(0, fn)
		env.RunAll()
	})
	if avg > 0 {
		t.Errorf("event loop allocates %.2f objects per event, want 0", avg)
	}
	env.Close()
}

// TestProcessSwitchAllocs pins a full Sleep (schedule wake-up, yield, resume)
// at zero steady-state allocations: resumptions are heap slots, not closures.
func TestProcessSwitchAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	env := NewEnv(1)
	var avg float64
	env.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 64; i++ {
			p.Sleep(time.Microsecond) // warm up heap and goroutine stack
		}
		avg = testing.AllocsPerRun(1000, func() {
			p.Sleep(time.Microsecond)
		})
	})
	env.RunAll()
	env.Close()
	if avg > 0 {
		t.Errorf("process switch allocates %.2f objects per switch, want 0", avg)
	}
}

// TestPromiseRoundTripAllocs pins the single-waiter promise rendezvous at
// one allocation per round trip: the Promise itself. Waiter registration and
// wake-up must not allocate.
func TestPromiseRoundTripAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	env := NewEnv(1)
	var avg float64
	var pr *Promise[int]
	resolve := func() { pr.Resolve(7) }
	env.Spawn("driver", func(p *Proc) {
		for i := 0; i < 64; i++ {
			pr = NewPromise[int](env)
			env.After(0, resolve)
			MustAwait(p, pr)
		}
		avg = testing.AllocsPerRun(500, func() {
			pr = NewPromise[int](env)
			env.After(0, resolve)
			if MustAwait(p, pr) != 7 {
				t.Error("wrong promise value")
			}
		})
	})
	env.RunAll()
	env.Close()
	if avg > 1 {
		t.Errorf("promise round trip allocates %.2f objects, want 1 (the promise)", avg)
	}
}
