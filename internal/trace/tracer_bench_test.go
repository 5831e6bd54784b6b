package trace

import (
	"testing"
	"time"

	"wadeploy/internal/sim"
)

func BenchmarkPageSync(b *testing.B) {
	env := sim.NewEnv(1)
	tr := New(env, Options{SampleEvery: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.PageSync(TraceID(i), "Browser", "Main", "edge1", false, 0, 90*time.Millisecond, 80*time.Millisecond)
	}
	env.Close()
}

func BenchmarkSampleCheck(b *testing.B) {
	env := sim.NewEnv(1)
	tr := New(env, Options{SampleEvery: 16})
	key := ClientKey("Browser")
	n := 0
	for i := 0; i < b.N; i++ {
		if tr.Sampled(PageTraceID(key, uint64(i))) {
			n++
		}
	}
	_ = n
	env.Close()
}

// TestUntracedFastPathZeroAllocs pins the tracing-off invariant: every
// substrate call site costs a nil check and nothing else.
func TestUntracedFastPathZeroAllocs(t *testing.T) {
	env := sim.NewEnv(1)
	env.Spawn("p", func(p *sim.Proc) {
		if n := testing.AllocsPerRun(1000, func() {
			Op(p, "sql", "q", "n", "", CauseService)()
			ctx := Capture(p)
			ctx.Drop()
			Adoptf(p, ctx, "jms", "n", CauseService, "x", "", "")()
		}); n != 0 {
			t.Errorf("untraced fast path allocates %.1f per event, want 0", n)
		}
	})
	env.RunAll()
	env.Close()
}

// TestPageSyncSteadyStateZeroAllocs pins the scale engine's recorder cost:
// once the flight-recorder ring is full, every sampled page recycles the
// evicted trace and allocates nothing.
func TestPageSyncSteadyStateZeroAllocs(t *testing.T) {
	env := sim.NewEnv(1)
	tr := New(env, Options{SampleEvery: 1, MaxTraces: 8})
	record := func(id uint64) {
		tr.PageSync(TraceID(id), "Browser", "Main", "edge1", false, 0, 90*time.Millisecond, 80*time.Millisecond)
	}
	for i := uint64(0); i < 16; i++ {
		record(i) // fill the ring and warm the aggregator/counter maps
	}
	id := uint64(16)
	if n := testing.AllocsPerRun(1000, func() { record(id); id++ }); n != 0 {
		t.Errorf("steady-state PageSync allocates %.1f per sampled page, want 0", n)
	}
	env.Close()
}
