package sim

import (
	"testing"
	"time"

	"wadeploy/internal/race"
)

// countTask fires and appends its tag to a shared log.
type countTask struct {
	log *[]string
	tag string
}

func (c *countTask) Fire(e *Env) { *c.log = append(*c.log, c.tag) }

// tickTask reschedules itself every period until limit firings — the
// self-rescheduling state-machine shape the streaming workload engine uses.
type tickTask struct {
	period time.Duration
	fired  int
	limit  int
}

func (t *tickTask) Fire(e *Env) {
	t.fired++
	if t.fired < t.limit {
		e.AfterTask(t.period, t)
	}
}

func TestTaskOrdering(t *testing.T) {
	env := NewEnv(1)
	var log []string
	// Same instant: a raw fn, a task and a process, scheduled in that order,
	// must fire in schedule (seq) order regardless of kind.
	env.At(time.Second, func() { log = append(log, "fn") })
	env.AtTask(time.Second, &countTask{log: &log, tag: "task"})
	env.SpawnAt(time.Second, "p", func(p *Proc) { log = append(log, "proc") })
	env.AtTask(500*time.Millisecond, &countTask{log: &log, tag: "early"})
	env.RunAll()
	want := []string{"early", "fn", "task", "proc"}
	if len(log) != len(want) {
		t.Fatalf("got %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("got %v, want %v", log, want)
		}
	}
	env.Close()
}

func TestTaskSelfReschedule(t *testing.T) {
	env := NewEnv(1)
	tick := &tickTask{period: time.Second, limit: 10}
	env.AfterTask(time.Second, tick)
	env.RunAll()
	if tick.fired != 10 {
		t.Fatalf("fired %d times, want 10", tick.fired)
	}
	if env.Now() != 10*time.Second {
		t.Fatalf("clock at %v, want 10s", env.Now())
	}
	if env.Dispatched() != 10 {
		t.Fatalf("dispatched %d events, want 10", env.Dispatched())
	}
	env.Close()
}

// TestTaskCloseSemantics pins the Close contract for tasks: pending firings
// are dropped (never fired), and AtTask/AfterTask on a closed environment are
// no-ops.
func TestTaskCloseSemantics(t *testing.T) {
	env := NewEnv(1)
	var log []string
	env.AtTask(time.Second, &countTask{log: &log, tag: "before-horizon"})
	env.AtTask(time.Hour, &countTask{log: &log, tag: "after-horizon"})
	env.Run(time.Minute)
	env.Close()
	if len(log) != 1 || log[0] != "before-horizon" {
		t.Fatalf("log = %v, want [before-horizon]", log)
	}
	if env.Pending() != 0 {
		t.Fatalf("%d events pending after Close, want 0", env.Pending())
	}
	env.AtTask(2*time.Hour, &countTask{log: &log, tag: "post-close"})
	env.AfterTask(time.Second, &countTask{log: &log, tag: "post-close-after"})
	if env.Pending() != 0 {
		t.Fatal("AtTask on a closed environment scheduled an event")
	}
}

// TestTaskPastClamp mirrors the At contract: deadlines in the past fire at
// the current instant.
func TestTaskPastClamp(t *testing.T) {
	env := NewEnv(1)
	var fired time.Duration = -1
	env.At(time.Second, func() {
		env.AtTask(0, TaskFunc(func(e *Env) { fired = e.Now() }))
	})
	env.RunAll()
	if fired != time.Second {
		t.Fatalf("past-deadline task fired at %v, want 1s", fired)
	}
	env.Close()
}

// TestTaskDispatchAllocs guards the task fast path: steady-state
// self-rescheduling firings must not allocate.
func TestTaskDispatchAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	env := NewEnv(1)
	// Warm every wheel slot so each backing array has been allocated once
	// (slot arrays persist across pops, so steady state is allocation-free).
	noop := TaskFunc(func(e *Env) {})
	for i := 0; i < wheelSlots; i++ {
		env.AtTask(time.Duration(i)<<wheelShift, noop)
	}
	env.Run(time.Duration(wheelSlots) << wheelShift)
	tick := &tickTask{period: time.Second, limit: 1 << 30}
	env.AfterTask(time.Second, tick)
	env.Run(env.Now() + 100*time.Second)
	allocs := testing.AllocsPerRun(100, func() {
		limit := time.Duration(tick.fired+10) * time.Second
		env.Run(limit)
	})
	if allocs > 0 {
		t.Errorf("task dispatch allocates %.1f objects per run, want 0", allocs)
	}
	env.Close()
}
