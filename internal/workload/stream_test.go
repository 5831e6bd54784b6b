package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/trace"
)

// testStreamGen emits a 5-step session alternating two pages, carrying a
// drawn id through the registers.
func testStreamGen(rng *rand.Rand, st *StreamState, step *Step) bool {
	if st.Pos >= 5 {
		return false
	}
	if st.Pos == 0 {
		st.R[0] = int64(rng.Intn(100))
		step.Page = "Main"
		return true
	}
	if st.Pos%2 == 1 {
		step.Page = "Detail"
		step.Set("id", "x")
	} else {
		step.Page = "List"
	}
	return true
}

func testStreamRequest(env *sim.Env, c *StreamClass, st *StreamState, step *Step) (time.Duration, error) {
	rt := 20 * time.Millisecond
	rt += time.Duration(env.Rand().Int63n(int64(10 * time.Millisecond)))
	if step.Page == "Detail" && st.R[0] == 13 {
		return rt, fmt.Errorf("unlucky id")
	}
	return rt, nil
}

func testStreamConfig(workers int) StreamConfig {
	classes := []StreamClass{}
	for n := 0; n < 4; n++ {
		classes = append(classes, StreamClass{
			Name:    fmt.Sprintf("c%d", n),
			Node:    fmt.Sprintf("node-%d", n),
			Local:   n == 0,
			Pattern: "Browser",
			Clients: 50,
			Delay:   time.Second,
			Gen:     testStreamGen,
			Request: testStreamRequest,
		})
	}
	return StreamConfig{
		Seed:     7,
		Classes:  classes,
		Warmup:   2 * time.Second,
		Duration: 20 * time.Second,
		Shards:   4,
		Workers:  workers,
	}
}

func streamFingerprint(res *StreamResult) string {
	out := fmt.Sprintf("events=%d pages=%d sessions=%d errors=%d clamped=%d\n",
		res.Events, res.Pages, res.Sessions, res.Stats.Errors(), res.Clamped)
	for _, k := range res.Stats.Keys() {
		s := res.Stats.Series(k)
		out += fmt.Sprintf("%s/%s/%v n=%d mean=%v min=%v max=%v p95=%v\n",
			k.Pattern, k.Page, k.Local, s.Count(), s.Mean(), s.Min(), s.Max(), s.Percentile(95))
	}
	return out
}

// TestStreamWorkerCountInvariance pins that results are byte-identical for
// any worker count (the sharded engine's core guarantee surfaced through the
// workload layer).
func TestStreamWorkerCountInvariance(t *testing.T) {
	res, err := RunStream(testStreamConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	want := streamFingerprint(res)
	if res.Stats.TotalSamples() == 0 {
		t.Fatal("no samples recorded")
	}
	if res.Clamped != 0 {
		t.Fatalf("Clamped = %d: sessions never leave their lane, so no send can land inside the window", res.Clamped)
	}
	for _, workers := range []int{2, 4, 8} {
		res, err := RunStream(testStreamConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := streamFingerprint(res); got != want {
			t.Errorf("workers=%d differs:\n--- workers=1\n%s--- workers=%d\n%s", workers, want, workers, got)
		}
	}
}

// TestStreamSoftThinkPacing checks the request cadence: with response times
// far below Delay, each client completes one page per Delay interval.
func TestStreamSoftThinkPacing(t *testing.T) {
	cfg := StreamConfig{
		Seed: 1,
		Classes: []StreamClass{{
			Name: "c", Node: "n", Pattern: "Browser", Clients: 10,
			Delay: time.Second, Gen: testStreamGen,
			Request: func(env *sim.Env, c *StreamClass, st *StreamState, step *Step) (time.Duration, error) {
				return 10 * time.Millisecond, nil
			},
		}},
		Duration: 100 * time.Second,
	}
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 clients x ~100 page starts (jitter trims at most one per client).
	if res.Pages < 950 || res.Pages > 1010 {
		t.Errorf("pages = %d, want ~1000", res.Pages)
	}
	// 5-step sessions: about one session completion per 5 pages.
	if res.Sessions < 180 || res.Sessions > 210 {
		t.Errorf("sessions = %d, want ~200", res.Sessions)
	}
}

// TestStreamErrorsRecorded checks failed requests land in the error counts,
// not the series.
func TestStreamErrorsRecorded(t *testing.T) {
	res, err := RunStream(testStreamConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.errors["Detail"] == 0 {
		t.Error("expected Detail errors from the unlucky id")
	}
	if res.Stats.errors["Main"] != 0 {
		t.Error("Main should never fail")
	}
}

// TestStreamSteadyStateMemory pins the bounded-memory claim: with the client
// population fixed, running 4x longer — roughly 4x the pages and sessions —
// must not grow the heap footprint appreciably, because completed sessions
// recycle their task struct and the class scratch instead of allocating.
func TestStreamSteadyStateMemory(t *testing.T) {
	heapAfter := func(duration time.Duration) (uint64, *StreamResult) {
		cfg := testStreamConfig(1)
		cfg.Workers = 1
		cfg.Shards = 1
		cfg.Duration = duration
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := RunStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, res
	}
	short, shortRes := heapAfter(30 * time.Second)
	long, longRes := heapAfter(120 * time.Second)
	if longRes.Sessions < 3*shortRes.Sessions {
		t.Fatalf("long run completed %d sessions vs %d short — expected ~4x", longRes.Sessions, shortRes.Sessions)
	}
	// Allow generous slack for histogram growth and GC noise: the old
	// per-session materialization would make this ratio track the 4x
	// session ratio.
	if long > short*2 {
		t.Errorf("bytes allocated grew with run length: %d for %d sessions vs %d for %d sessions",
			long, longRes.Sessions, short, shortRes.Sessions)
	}
}

// tracedStreamConfig is testStreamConfig with tracing enabled: 1-in-4
// sampling, a recorder large enough to hold every sampled trace, and a WAN
// hint on the remote classes.
func tracedStreamConfig(shards, workers int) StreamConfig {
	cfg := testStreamConfig(workers)
	cfg.Shards = shards
	cfg.Trace = &trace.Options{SampleEvery: 4, MaxTraces: 1 << 16}
	for i := range cfg.Classes {
		if !cfg.Classes[i].Local {
			cfg.Classes[i].TraceWAN = func(page string, rt time.Duration) time.Duration {
				return 5 * time.Millisecond
			}
		}
	}
	return cfg
}

func sampledIDs(res *StreamResult) []trace.TraceID {
	ids := make([]trace.TraceID, len(res.Traces))
	for i, tr := range res.Traces {
		ids[i] = tr.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestStreamTraceShardInvariantSampling pins the sampler's identity
// contract: the set of sampled trace IDs is byte-identical across shard and
// worker counts, because trace IDs derive from (class, session index, page
// ordinal) and never from lane timing or seeds.
func TestStreamTraceShardInvariantSampling(t *testing.T) {
	base, err := RunStream(tracedStreamConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if base.TraceSampled == 0 || base.TraceDropped != 0 {
		t.Fatalf("sampled=%d dropped=%d, want >0 sampled with no evictions", base.TraceSampled, base.TraceDropped)
	}
	if uint64(len(base.Traces)) != base.TraceSampled {
		t.Fatalf("recorder holds %d traces, %d sampled", len(base.Traces), base.TraceSampled)
	}
	if base.TraceSampled >= base.Pages {
		t.Fatalf("sampling recorded %d of %d pages; expected a strict subset", base.TraceSampled, base.Pages)
	}
	want := sampledIDs(base)
	for _, tc := range []struct{ shards, workers int }{{4, 1}, {4, 4}, {2, 2}} {
		res, err := RunStream(tracedStreamConfig(tc.shards, tc.workers))
		if err != nil {
			t.Fatal(err)
		}
		got := sampledIDs(res)
		if len(got) != len(want) {
			t.Fatalf("shards=%d workers=%d sampled %d traces, want %d", tc.shards, tc.workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d workers=%d trace ID set diverges at %d: %#x != %#x", tc.shards, tc.workers, i, got[i], want[i])
			}
		}
	}
}

// TestStreamTraceWorkerByteIdentity pins that, at a fixed shard count, the
// full recorded traces — spans, timings, blame — are byte-identical for any
// worker count, matching the engine's stats guarantee.
func TestStreamTraceWorkerByteIdentity(t *testing.T) {
	render := func(res *StreamResult) string {
		var out string
		for _, tr := range res.Traces {
			out += trace.Format(tr)
		}
		return out
	}
	base, err := RunStream(tracedStreamConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := render(base)
	if want == "" {
		t.Fatal("no traces recorded")
	}
	for _, workers := range []int{2, 8} {
		res, err := RunStream(tracedStreamConfig(4, workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := render(res); got != want {
			t.Errorf("workers=%d trace output differs from workers=1", workers)
		}
	}
}

// TestStreamTraceBlameUsesWANHint checks the declared WAN split lands in the
// merged aggregates: remote pages carry wide-area blame, local pages none.
func TestStreamTraceBlameUsesWANHint(t *testing.T) {
	res, err := RunStream(tracedStreamConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Blame == nil {
		t.Fatal("no blame aggregator")
	}
	sawLocal, sawRemote := false, false
	for _, e := range res.Blame.Pages() {
		wan := e.Agg.ByCause[trace.CauseWAN]
		if e.Key.Local {
			sawLocal = true
			if wan != 0 {
				t.Errorf("local %s has WAN blame %v", e.Key.Page, wan)
			}
		} else {
			sawRemote = true
			if wan <= 0 {
				t.Errorf("remote %s has no WAN blame", e.Key.Page)
			}
		}
	}
	if !sawLocal || !sawRemote {
		t.Fatalf("aggregate missing a locality: local=%v remote=%v", sawLocal, sawRemote)
	}
}

// TestRefillRunsStreamGenToExhaustion: the adaptor emits exactly the steps
// the streaming engine would draw from the same RNG — every session from the
// zero state, params of a reused slot cleared — allocates nothing once the
// buffer has grown, and may be shared by concurrent drivers.
func TestRefillRunsStreamGenToExhaustion(t *testing.T) {
	refill := Refill(testStreamGen)
	rng, ref := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	var buf []Step
	for s := 0; s < 3; s++ {
		buf = refill(rng, buf[:0])
		var st StreamState
		for i := 0; ; i++ {
			var want Step
			if !testStreamGen(ref, &st, &want) {
				if i != len(buf) {
					t.Fatalf("session %d: %d steps, want %d", s, len(buf), i)
				}
				break
			}
			st.Pos++
			if i >= len(buf) || buf[i].Page != want.Page || len(buf[i].Params) != len(want.Params) || buf[i].Params["id"] != want.Params["id"] {
				t.Fatalf("session %d step %d: got %+v, want %+v", s, i, buf, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = refill(rng, buf[:0]) }); allocs > 0 {
		t.Errorf("steady-state refill allocates %.1f objects, want 0", allocs)
	}
	done := make(chan int, 4)
	for g := 0; g < cap(done); g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			var own []Step
			n := 0
			for s := 0; s < 200; s++ {
				own = refill(rng, own[:0])
				n += len(own)
			}
			done <- n
		}(int64(g))
	}
	for g := 0; g < cap(done); g++ {
		if n := <-done; n != 200*5 {
			t.Errorf("concurrent refill produced %d steps, want %d", n, 200*5)
		}
	}
}
