package sim

// Engine hot-path microbenchmarks and allocation guards.
//
// Every experiment run dispatches millions of events and process switches,
// so regressions here multiply across the whole evaluation grid. The
// benchmarks report ns/op and allocs/op for the hot paths (raw callback
// dispatch, process switching and the in-place sleep that avoids it, process
// start on a pooled coroutine, promise rendezvous); the Test*Allocs guards pin
// the steady-state allocation counts so an accidental closure-per-event or
// coroutine-per-process reintroduction fails the test suite rather than just
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

// BenchmarkEngineProcessSwitch measures one full process switch: a process
// schedules its own wake-up and yields, the scheduler pops the other
// process's wake-up and resumes it. Two processes in lock-step, because each
// one's wake-up is then never the next event (the other's is queued at the
// same instant, earlier) and every Sleep really leaves its stack.
func BenchmarkEngineProcessSwitch(b *testing.B) {
	env := NewEnv(1)
	for k := 0; k < 2; k++ {
		env.Spawn("switcher", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.RunAll()
	b.StopTimer()
	env.Close()
}

// BenchmarkEngineSleepInPlace measures the Sleep that is next in line: with
// nothing else queued the clock advances on the sleeper's own stack.
func BenchmarkEngineSleepInPlace(b *testing.B) {
	env := NewEnv(1)
	env.Spawn("sleeper", func(p *Proc) {
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

// BenchmarkEngineSpawn measures starting and finishing a process: the Proc,
// its start event, and a first step on the coroutine the previous one left
// idle.
func BenchmarkEngineSpawn(b *testing.B) {
	env := NewEnv(1)
	child := func(*Proc) {}
	env.Spawn("parent", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.Spawn("child", child)
			p.Sleep(time.Microsecond)
		}
		b.StopTimer()
	})
	b.ReportAllocs()
	env.RunAll()
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
			if v, err := Await(p, pr); err != nil || v != 1 {
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

// TestProcessSwitchAllocs pins Sleep at zero steady-state allocations on both
// of its paths: the in-place clock advance of a sleeper that is next in line,
// and the full switch (schedule wake-up, yield, resume) — resumptions are
// queue slots, not closures, and the hand-off is a coroutine switch.
func TestProcessSwitchAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	env := NewEnv(1)
	var inPlace, switched float64
	measuring := true
	env.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 64; i++ {
			p.Sleep(time.Microsecond) // warm up the queue and the stack
		}
		inPlace = testing.AllocsPerRun(1000, func() { p.Sleep(time.Microsecond) })
		// A second process in lock-step: its wake-up is always queued at the
		// instant this one's would be, so neither is ever next in line.
		env.Spawn("other", func(q *Proc) {
			for measuring {
				q.Sleep(time.Microsecond)
			}
		})
		for i := 0; i < 64; i++ {
			p.Sleep(time.Microsecond)
		}
		switched = testing.AllocsPerRun(1000, func() { p.Sleep(time.Microsecond) })
		measuring = false
	})
	env.RunAll()
	env.Close()
	if inPlace > 0 || switched > 0 {
		t.Errorf("Sleep allocates %.2f objects in place and %.2f per switch, want 0 and 0", inPlace, switched)
	}
}

// TestSpawnAllocs pins a process start at one allocation, the Proc: the
// coroutine comes from the idle list its predecessor parked on.
func TestSpawnAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	env := NewEnv(1)
	var avg float64
	ran := 0
	child := func(*Proc) { ran++ }
	env.Spawn("parent", func(p *Proc) {
		spawnAndRun := func() {
			env.Spawn("child", child)
			p.Sleep(time.Microsecond) // child starts, returns, parks its coroutine
		}
		for i := 0; i < 64; i++ {
			spawnAndRun()
		}
		ran = 0
		avg = testing.AllocsPerRun(1000, spawnAndRun)
	})
	env.RunAll()
	env.Close()
	if ran != 1001 { // AllocsPerRun makes one warm-up call of its own
		t.Fatalf("%d children ran, want 1001", ran)
	}
	if avg > 1 {
		t.Errorf("spawning and running a process allocates %.2f objects, want 1 (the Proc)", avg)
	}
}

// TestRestartAllocs pins one restart cycle — fn returns, its coroutine parks,
// the wake-up is queued and popped, fn runs again on a pooled coroutine — at
// zero allocations: the Proc is reused and the wake-up is a queue slot.
func TestRestartAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	env := NewEnv(1)
	runs := 0
	env.Spawn("restarter", func(p *Proc) {
		runs++
		p.RestartAt(p.Now() + time.Millisecond)
	})
	cycle := func() { env.Run(env.Now() + time.Millisecond) }
	for i := 0; i < 64; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(1000, cycle)
	env.Close()
	if runs != 1+64+1001 { // AllocsPerRun makes one warm-up call of its own
		t.Fatalf("%d runs, want %d", runs, 1+64+1001)
	}
	if avg > 0 {
		t.Errorf("a restart cycle allocates %.2f objects, want 0", avg)
	}
}

// TestPromiseRoundTripAllocs pins the single-waiter promise rendezvous —
// waiter registration, wake-up, and the switch out and back — at zero
// allocations beyond the Promise itself, which is made ahead of the
// measurement.
func TestPromiseRoundTripAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	env := NewEnv(1)
	var avg float64
	const runs = 500
	promises := make([]*Promise[int], 64+runs+1) // AllocsPerRun makes one warm-up call of its own
	for i := range promises {
		promises[i] = NewPromise[int](env)
	}
	next := 0
	resolve := func() { promises[next].Resolve(7) }
	roundTrip := func() {
		env.After(0, resolve)
		if v, err := Await(env.Current(), promises[next]); err != nil || v != 7 {
			t.Error("wrong promise value")
		}
		next++
	}
	env.Spawn("driver", func(p *Proc) {
		for i := 0; i < 64; i++ {
			roundTrip()
		}
		avg = testing.AllocsPerRun(runs, roundTrip)
	})
	env.RunAll()
	env.Close()
	if avg > 0 {
		t.Errorf("promise round trip allocates %.2f objects, want 0", avg)
	}
}
