package trace

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s output changed (run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// buildPageTrace runs one synthetic traced page with a WAN call, a nested
// SQL statement, a contended CPU use, and an async JMS-style hand-off.
func buildPageTrace(t *testing.T) *Trace {
	t.Helper()
	env := sim.NewEnv(1)
	tr := New(env, Options{})
	tr.Install(env)
	var got *Trace
	tr.onFinish = func(tc *Trace) { got = tc }

	cpu := sim.NewResource(env, 1)
	// A competing process holds the CPU for the first 4ms so the traced
	// page observes queueing.
	env.Spawn("rival", func(p *sim.Proc) { cpu.Use(p, 4*time.Millisecond) })

	env.Spawn("client", func(p *sim.Proc) {
		end := tr.StartPage(p, PageTraceID(ClientKey("client-0"), 0), "Browser", "Product", "clients-edge-1", false)
		if end == nil {
			t.Error("page unexpectedly unsampled")
			return
		}
		endTCP := Op(p, "tcp", "handshake", "edge-1", "clients-edge-1", CauseService)
		p.Sleep(1 * time.Millisecond)
		endTCP()
		endRMI := Opf(p, "rmi", "main", "edge-1", CauseWAN, "Catalog.getProduct", " -> ", "main")
		p.Sleep(20 * time.Millisecond) // request transfer
		endSQL := Op(p, "sql", "SELECT item FROM product", "main", "", CauseService)
		Use(p, cpu, "main", 2*time.Millisecond)
		endSQL()
		// Async hand-off: a cache-update delivery on another node.
		ctx := Capture(p)
		env.Spawn("jms:edge-2", func(dp *sim.Proc) {
			endD := Adoptf(dp, ctx, "jms", "edge-2", CauseService, "deliver updates", "", "")
			dp.Sleep(3 * time.Millisecond)
			endD()
		})
		p.Sleep(20 * time.Millisecond) // response transfer
		endRMI()
		end()
	})
	env.RunAll()
	env.Close()
	if got == nil {
		t.Fatal("trace did not finish")
	}
	return got
}

func TestPageTraceTreeAndBlame(t *testing.T) {
	tc := buildPageTrace(t)
	if tc.Spans[0].Layer != "page" || tc.Spans[0].Parent != NoParent {
		t.Fatalf("root = %+v", tc.Spans[0])
	}
	b := Analyze(tc)
	// The page waited 4ms-1ms(tcp)=3ms in the CPU queue; rival started at
	// t=0, page queue wait begins at 21ms... the rival released at 4ms, so
	// no contention: assert structure instead of exact queueing.
	total := b.ByCause[CauseService] + b.ByCause[CauseWAN] + b.ByCause[CauseQueue] + b.ByCause[CauseRetry]
	if total != b.Total {
		t.Fatalf("cause decomposition %v does not sum to total %v", total, b.Total)
	}
	if b.ByCause[CauseWAN] != 40*time.Millisecond {
		t.Fatalf("WAN blame = %v, want 40ms", b.ByCause[CauseWAN])
	}
	if b.Async != 3*time.Millisecond {
		t.Fatalf("async time = %v, want 3ms", b.Async)
	}
	if b.Links["edge-1->main"] != 40*time.Millisecond {
		t.Fatalf("link blame = %v", b.Links)
	}
}

func TestFormatTreeGolden(t *testing.T) {
	checkGolden(t, "format_tree", Format(buildPageTrace(t)))
}

func TestQueueBlameUnderContention(t *testing.T) {
	env := sim.NewEnv(1)
	tr := New(env, Options{})
	tr.Install(env)
	var got *Trace
	tr.onFinish = func(tc *Trace) { got = tc }
	cpu := sim.NewResource(env, 1)
	env.Spawn("rival", func(p *sim.Proc) { cpu.Use(p, 10*time.Millisecond) })
	env.Spawn("client", func(p *sim.Proc) {
		end := tr.StartPage(p, 1, "Browser", "Main", "n", true)
		Use(p, cpu, "n", 5*time.Millisecond)
		end()
	})
	env.RunAll()
	env.Close()
	b := Analyze(got)
	if b.ByCause[CauseQueue] != 10*time.Millisecond || b.ByCause[CauseService] != 5*time.Millisecond {
		t.Fatalf("queue=%v service=%v, want 10ms/5ms", b.ByCause[CauseQueue], b.ByCause[CauseService])
	}
}

// Overlapping parallel children (a blocking fan-out awaited by the root)
// must union, not sum, when computing the parent's self-time.
func TestAnalyzeOverlappingChildren(t *testing.T) {
	tc := &Trace{Pattern: "p", Page: "x"}
	root, _ := tc.addSpan(Span{Parent: NoParent, Layer: "page", Start: 0, End: 100 * time.Millisecond})
	tc.addSpan(Span{Parent: root, Layer: "rmi", Start: 10 * time.Millisecond, End: 60 * time.Millisecond, Cause: CauseWAN})
	tc.addSpan(Span{Parent: root, Layer: "rmi", Start: 30 * time.Millisecond, End: 80 * time.Millisecond, Cause: CauseWAN})
	b := Analyze(tc)
	// Union of children = [10,80] = 70ms, so root self = 30ms, not the
	// negative value a plain sum (100ms) would produce. The children keep
	// their own durations (overlap cannot arise from properly nested
	// single-process spans; the union is the defensive bound).
	if b.ByCause[CauseService] != 30*time.Millisecond {
		t.Fatalf("root self = %v, want 30ms", b.ByCause[CauseService])
	}
	if b.ByCause[CauseWAN] != 100*time.Millisecond {
		t.Fatalf("wan = %v, want 100ms", b.ByCause[CauseWAN])
	}
}

func TestSamplerIsPureFunctionOfTraceID(t *testing.T) {
	envA := sim.NewEnv(1)
	envB := sim.NewEnv(99) // different seed, different lane: must not matter
	trA := New(envA, Options{SampleEvery: 8})
	trB := New(envB, Options{SampleEvery: 8})
	sampled := 0
	for i := uint64(0); i < 4096; i++ {
		id := PageTraceID(ClientKey("client/remote-1/Browser-3"), i)
		a, b := trA.Sampled(id), trB.Sampled(id)
		if a != b {
			t.Fatalf("sampling decision for id %#x differs across tracers", id)
		}
		if a {
			sampled++
		}
	}
	// 1-in-8 over 4096 draws: expect ~512; allow wide slack, the point is
	// the rate is neither 0 nor 1.
	if sampled < 256 || sampled > 1024 {
		t.Fatalf("sampled %d of 4096 at 1-in-8", sampled)
	}
	envA.Close()
	envB.Close()
}

func TestPageTraceIDDeterminism(t *testing.T) {
	if PageTraceID(ClientKey("a"), 0) == PageTraceID(ClientKey("a"), 1) {
		t.Fatal("consecutive page ordinals collide")
	}
	if PageTraceID(ClientKey("a"), 0) != PageTraceID(ClientKey("a"), 0) {
		t.Fatal("trace IDs not reproducible")
	}
	if PageTraceID(ClientKey("a"), 0) == PageTraceID(ClientKey("b"), 0) {
		t.Fatal("distinct clients collide on page 0")
	}
}

func TestRecorderRingEvictsOldest(t *testing.T) {
	dropped := metrics.NewRegistry(nil).Counter("trace_dropped_total")
	r := newRecorder(2, dropped)
	a, b, c := &Trace{ID: 1}, &Trace{ID: 2}, &Trace{ID: 3}
	r.Push(a)
	r.Push(b)
	r.Push(c)
	if r.Len() != 2 || dropped.Value() != 1 {
		t.Fatalf("len=%d evicted=%d", r.Len(), dropped.Value())
	}
	got := r.Traces()
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 3 {
		t.Fatalf("traces = %+v", got)
	}
}

func TestSpanCapCountsDropped(t *testing.T) {
	env := sim.NewEnv(1)
	tr := New(env, Options{})
	tr.Install(env)
	var got *Trace
	tr.onFinish = func(tc *Trace) { got = tc }
	env.Spawn("client", func(p *sim.Proc) {
		end := tr.StartPage(p, 1, "p", "x", "n", true)
		for i := 0; i < maxSpans+3; i++ { // the root and maxSpans+3 ops: 4 too many
			endOp := Op(p, "sql", "q", "n", "", CauseService)
			p.Sleep(time.Millisecond)
			endOp()
		}
		end()
	})
	env.RunAll()
	env.Close()
	if got == nil {
		t.Fatal("trace did not finish despite dropped spans")
	}
	if len(got.Spans) != maxSpans || got.Dropped != 4 {
		t.Fatalf("spans=%d dropped=%d, want %d/4", len(got.Spans), got.Dropped, maxSpans)
	}
}

func TestDropReleasesPending(t *testing.T) {
	env := sim.NewEnv(1)
	tr := New(env, Options{})
	tr.Install(env)
	var got *Trace
	tr.onFinish = func(tc *Trace) { got = tc }
	env.Spawn("client", func(p *sim.Proc) {
		end := tr.StartPage(p, 1, "p", "x", "n", true)
		ctx := Capture(p)
		p.Sleep(time.Millisecond)
		end()
		if got != nil {
			t.Error("trace finished while a captured context was outstanding")
		}
		ctx.Drop()
	})
	env.RunAll()
	env.Close()
	if got == nil {
		t.Fatal("trace did not finish after Drop")
	}
}

func TestUntracedFastPathIsInert(t *testing.T) {
	env := sim.NewEnv(1)
	env.Spawn("p", func(p *sim.Proc) {
		end := Op(p, "sql", "q", "n", "", CauseService)
		end()
		ctx := Capture(p)
		if ctx.t != nil {
			t.Error("untraced capture returned a live context")
		}
		ctx.Drop()
		Adoptf(p, ctx, "jms", "n", CauseService, "x", "", "")()
	})
	env.RunAll()
	env.Close()
}

func TestMetricsFamilies(t *testing.T) {
	env := sim.NewEnv(1)
	tr := New(env, Options{MaxTraces: 1})
	tr.Install(env)
	env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			end := tr.StartPage(p, TraceID(i), "p", "x", "main", true)
			p.Sleep(time.Millisecond)
			end()
		}
	})
	env.RunAll()
	reg := env.Metrics()
	if got := reg.CounterValue("trace_sampled_total"); got != 3 {
		t.Fatalf("trace_sampled_total = %d", got)
	}
	if got := reg.CounterValue("trace_dropped_total"); got != 2 {
		t.Fatalf("trace_dropped_total = %d (ring cap 1, 3 traces)", got)
	}
	if got := reg.CounterValue(`trace_spans_total{node="main"}`); got != 3 {
		t.Fatalf("trace_spans_total{main} = %d", got)
	}
	env.Close()
}
