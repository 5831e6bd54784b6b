package workload

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/race"
	"wadeploy/internal/sim"
)

func TestSummaryStatistics(t *testing.T) {
	s := &Summary{}
	for _, d := range []time.Duration{10, 20, 30, 40, 50} {
		s.add(d * time.Millisecond)
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 30*time.Millisecond {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Min() != 10*time.Millisecond || s.Max() != 50*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	// P50 resolves to the bucket holding the 30ms sample.
	if lo, hi := metrics.BucketRange(30 * time.Millisecond); s.Percentile(50) < lo || s.Percentile(50) > hi {
		t.Fatalf("p50 = %v, want within bucket [%v, %v]", s.Percentile(50), lo, hi)
	}
	if p := s.Percentile(100); p != 50*time.Millisecond {
		t.Fatalf("p100 = %v", p)
	}
	if p := s.Percentile(0); p != 10*time.Millisecond {
		t.Fatalf("p0 = %v", p)
	}
}

// TestPercentileNearestRank pins the nearest-rank rule. The samples are tiny
// durations (< 32 ns), where the histogram's buckets are exact, so the rule
// is observable without bucket rounding: the rank round(q/100·(n−1)) is
// rounded to the closest sample, where the old implementation truncated.
func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		name    string
		samples []time.Duration
		q       float64
		want    time.Duration
	}{
		{"odd-median", []time.Duration{10, 20, 30}, 50, 20},
		{"even-median-rounds-up", []time.Duration{10, 20, 30, 31}, 50, 30}, // trunc would give 20
		{"p25-of-five", []time.Duration{10, 12, 14, 16, 18}, 25, 12},
		{"p75-of-five", []time.Duration{10, 12, 14, 16, 18}, 75, 16},
		{"p90-rounds-to-last", []time.Duration{10, 20}, 90, 20},
		{"p10-rounds-to-first", []time.Duration{10, 20}, 10, 10},
		{"p40-of-four-rounds", []time.Duration{10, 20, 30, 31}, 40, 20}, // rank round(1.2)=1
		{"single-sample", []time.Duration{17}, 50, 17},
		{"p0-is-min", []time.Duration{5, 9, 13}, 0, 5},
		{"p100-is-max", []time.Duration{5, 9, 13}, 100, 13},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Summary{}
			for _, d := range tc.samples {
				s.add(d)
			}
			if got := s.Percentile(tc.q); got != tc.want {
				t.Fatalf("P%v of %v = %v, want %v", tc.q, tc.samples, got, tc.want)
			}
		})
	}
}

// TestSummaryPercentileDrift bounds the cost of the bounded-memory rewrite:
// against a retained-samples oracle, the histogram-backed P95 may sit at
// most one bucket width above the exact nearest-rank value.
func TestSummaryPercentileDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := &Summary{}
	samples := make([]time.Duration, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Long-tailed response times: 1ms to ~2s.
		d := time.Duration(1e6 * math.Exp(rng.Float64()*7.6))
		s.add(d)
		samples = append(samples, d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{50, 90, 95, 99} {
		rank := int(math.Round(q / 100 * float64(len(samples)-1)))
		exact := samples[rank]
		got := s.Percentile(q)
		lo, hi := metrics.BucketRange(exact)
		if got < lo || got > hi {
			t.Errorf("P%v = %v, exact %v, want within that sample's bucket [%v, %v]", q, got, exact, lo, hi)
		}
	}
}

func TestEmptySummary(t *testing.T) {
	s := &Summary{}
	if s.Mean() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestStatsWarmupDiscard(t *testing.T) {
	st := NewStats(time.Minute)
	key := SeriesKey{Pattern: "Browser", Page: "Main", Local: true}
	st.Record(30*time.Second, key, 100*time.Millisecond) // during warm-up
	st.Record(90*time.Second, key, 200*time.Millisecond)
	if st.Mean(key) != 200*time.Millisecond {
		t.Fatalf("mean = %v; warm-up sample leaked in", st.Mean(key))
	}
	if st.TotalSamples() != 1 {
		t.Fatalf("samples = %d", st.TotalSamples())
	}
	st.RecordError(30*time.Second, "Main")
	st.RecordError(90*time.Second, "Main")
	if st.Errors() != 1 || st.errors["Main"] != 1 {
		t.Fatalf("errors = %d", st.Errors())
	}
}

func TestSessionMeanWeightsByCount(t *testing.T) {
	st := NewStats(0)
	// 3 fast Main requests, 1 slow Item request.
	for i := 0; i < 3; i++ {
		st.Record(time.Second, SeriesKey{Pattern: "Browser", Page: "Main", Local: false}, 100*time.Millisecond)
	}
	st.Record(time.Second, SeriesKey{Pattern: "Browser", Page: "Item", Local: false}, 500*time.Millisecond)
	// Weighted: (3*100 + 500) / 4 = 200ms.
	if m := st.SessionMean("Browser", false); m != 200*time.Millisecond {
		t.Fatalf("session mean = %v, want 200ms", m)
	}
	// Other locality class is independent.
	if m := st.SessionMean("Browser", true); m != 0 {
		t.Fatalf("local mean = %v, want 0", m)
	}
}

func TestStatsKeysDeterministic(t *testing.T) {
	st := NewStats(0)
	keys := []SeriesKey{
		{Pattern: "Buyer", Page: "Main", Local: false},
		{Pattern: "Browser", Page: "Item", Local: true},
		{Pattern: "Browser", Page: "Item", Local: false},
		{Pattern: "Browser", Page: "Category", Local: true},
	}
	for _, k := range keys {
		st.Record(time.Second, k, time.Millisecond)
	}
	got := st.Keys()
	if len(got) != 4 {
		t.Fatalf("keys = %d", len(got))
	}
	want := []SeriesKey{
		{Pattern: "Browser", Page: "Category", Local: true},
		{Pattern: "Browser", Page: "Item", Local: true},
		{Pattern: "Browser", Page: "Item", Local: false},
		{Pattern: "Buyer", Page: "Main", Local: false},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st.String() == "" {
		t.Fatal("String() empty")
	}
}

// fixedRequest returns a RequestFunc with a constant simulated service time.
func fixedRequest(rt time.Duration) RequestFunc {
	return func(p *sim.Proc, client Client, step Step) (time.Duration, error) {
		p.Sleep(rt)
		return rt, nil
	}
}

func singlePageGen(page string, n int) StreamGen {
	return func(rng *rand.Rand, st *StreamState, step *Step) bool {
		if int(st.Pos) >= n {
			return false
		}
		step.Page = page
		return true
	}
}

func TestRunOfferedLoadIndependentOfResponseTime(t *testing.T) {
	// Two runs with very different response times must produce nearly the
	// same number of requests thanks to soft think times.
	count := func(rt time.Duration) int {
		env := sim.NewEnv(3)
		stats, err := Run(Config{
			Env: env,
			Groups: []Group{{
				Name: "g", ClientNode: "c", Local: true,
				Browsers: 10, Delay: time.Second,
				BrowserPattern: "Browser",
				BrowserGen:     singlePageGen("Main", 5),
				Request:        fixedRequest(rt),
			}},
			Warmup:   0,
			Duration: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.TotalSamples()
	}
	fast := count(10 * time.Millisecond)
	slow := count(700 * time.Millisecond)
	if fast == 0 {
		t.Fatal("no samples")
	}
	diff := float64(fast-slow) / float64(fast)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.1 {
		t.Fatalf("offered load varied with response time: fast=%d slow=%d", fast, slow)
	}
}

func TestRunSplitsPatterns(t *testing.T) {
	env := sim.NewEnv(3)
	stats, err := Run(Config{
		Env: env,
		Groups: []Group{{
			Name: "g", ClientNode: "c", Local: false,
			Browsers: 4, Writers: 1, Delay: time.Second,
			BrowserPattern: "Browser", WriterPattern: "Bidder",
			BrowserGen: singlePageGen("Item", 3),
			WriterGen:  singlePageGen("StoreBid", 3),
			Request:    fixedRequest(5 * time.Millisecond),
		}},
		Warmup:   2 * time.Second,
		Duration: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := stats.Series(SeriesKey{Pattern: "Browser", Page: "Item", Local: false})
	w := stats.Series(SeriesKey{Pattern: "Bidder", Page: "StoreBid", Local: false})
	if b == nil || w == nil {
		t.Fatalf("missing series: %v", stats.Keys())
	}
	// 4 browsers vs 1 writer at the same delay: roughly 4x the samples.
	ratio := float64(b.Count()) / float64(w.Count())
	if ratio < 3 || ratio > 5 {
		t.Fatalf("browser/writer sample ratio = %v, want ~4", ratio)
	}
}

func TestRunGroupRate(t *testing.T) {
	g := Group{Browsers: 8, Writers: 2, Delay: time.Second}
	if r := g.Rate(); r != 10 {
		t.Fatalf("rate = %v, want 10 req/s", r)
	}
	if (Group{}).Rate() != 0 {
		t.Fatal("zero-delay rate should be 0")
	}
}

func TestRunValidation(t *testing.T) {
	env := sim.NewEnv(1)
	if _, err := Run(Config{Env: nil, Duration: time.Second}); err == nil {
		t.Fatal("nil env accepted")
	}
	if _, err := Run(Config{Env: env, Duration: 0}); err == nil {
		t.Fatal("zero duration accepted")
	}
	bad := []Group{
		{Name: "no-request", Browsers: 1, Delay: time.Second, BrowserGen: singlePageGen("p", 1)},
		{Name: "no-delay", Browsers: 1, Request: fixedRequest(0), BrowserGen: singlePageGen("p", 1)},
		{Name: "no-gen", Browsers: 1, Delay: time.Second, Request: fixedRequest(0)},
		{Name: "no-writer-gen", Writers: 1, Delay: time.Second, Request: fixedRequest(0)},
	}
	for _, g := range bad {
		if _, err := Run(Config{Env: sim.NewEnv(1), Groups: []Group{g}, Duration: time.Second}); err == nil {
			t.Fatalf("group %q accepted", g.Name)
		}
	}
}

func TestRunDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		env := sim.NewEnv(42)
		stats, err := Run(Config{
			Env: env,
			Groups: []Group{{
				Name: "g", ClientNode: "c", Local: true,
				Browsers: 3, Delay: 500 * time.Millisecond,
				BrowserPattern: "Browser",
				BrowserGen: func(rng *rand.Rand, st *StreamState, step *Step) bool {
					if st.Pos == 0 {
						st.R[0] = int64(rng.Intn(4) + 1)
					}
					if int64(st.Pos) >= st.R[0] {
						return false
					}
					step.Page = "P"
					return true
				},
				Request: fixedRequest(7 * time.Millisecond),
			}},
			Duration: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic stats:\n%s\nvs\n%s", a, b)
	}
}

// TestThinkingClientHoldsNoCoroutine pins where a Run client waits: across
// its think time on a timer entry, not on a goroutine stack. 240 clients pace
// their pages 8 s apart and a request takes 100 ms, so about 3 are in flight
// at a time; mid-run, the goroutines above the baseline (the engine's pooled
// coroutines) may not outnumber the most requests ever in flight at once.
func TestThinkingClientHoldsNoCoroutine(t *testing.T) {
	const clients = 240
	base := runtime.NumGoroutine()
	inFlight, peak, midRun := 0, 0, 0
	_, err := Run(Config{
		Env: sim.NewEnv(1),
		Groups: []Group{{
			Name: "g", ClientNode: "c", Browsers: clients, Delay: 8 * time.Second,
			BrowserPattern: "Browser", BrowserGen: singlePageGen("Main", 20),
			Request: func(p *sim.Proc, _ Client, _ Step) (time.Duration, error) {
				inFlight++
				peak = max(peak, inFlight)
				if midRun == 0 && p.Now() >= time.Minute {
					midRun = runtime.NumGoroutine()
				}
				p.Sleep(100 * time.Millisecond)
				inFlight--
				return 100 * time.Millisecond, nil
			},
		}},
		Duration: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if midRun == 0 {
		t.Fatal("no request issued after the first minute")
	}
	t.Logf("%d goroutines before the run, %d mid-run; at most %d requests in flight", base, midRun, peak)
	if extra := midRun - base; extra > peak {
		t.Errorf("%d goroutines above the baseline mid-run with %d clients, want at most %d (the most requests in flight at once)",
			extra, clients, peak)
	}
}

// TestDriverAllocsPerPage pins the driver's own per-page cost with a null
// request — drawing the step into the client's Step, recording the page,
// restarting the client when the next page is due — at (almost) no
// allocations in steady state. Two run lengths are compared so set-up
// (clients, RNGs, coroutines, the first series) cancels out.
func TestDriverAllocsPerPage(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	gen := func(rng *rand.Rand, st *StreamState, step *Step) bool {
		if st.Pos >= 20 {
			return false
		}
		step.Page = "Item"
		step.Set("item", strconv.Itoa(rng.Intn(4)))
		return true
	}
	run := func(d time.Duration) (mallocs uint64, pages int) {
		cfg := Config{
			Env: sim.NewEnv(1),
			Groups: []Group{{
				Name: "g", ClientNode: "c", Browsers: 240, Delay: 8 * time.Second,
				BrowserPattern: "Browser", BrowserGen: gen,
				Request: func(*sim.Proc, Client, Step) (time.Duration, error) { return 0, nil },
			}},
			Duration: d,
			Observer: func(time.Duration, Client, SeriesKey, time.Duration, error) { pages++ },
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, pages
	}
	shortAllocs, shortPages := run(time.Minute)
	longAllocs, longPages := run(11 * time.Minute)
	perPage := float64(longAllocs-shortAllocs) / float64(longPages-shortPages)
	t.Logf("%.4f allocations per page over %d pages", perPage, longPages-shortPages)
	if perPage >= 0.05 {
		t.Errorf("the driver allocates %.3f objects per page in steady state (%d pages), want < 0.05",
			perPage, longPages-shortPages)
	}
}

// Property: mean lies within [min, max] and percentiles are monotone.
func TestPropertySummaryInvariants(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		s := &Summary{}
		for _, r := range raw {
			s.add(time.Duration(r%1e6) * time.Microsecond)
		}
		m := s.Mean()
		if m < s.Min() || m > s.Max() {
			return false
		}
		last := time.Duration(-1)
		for _, q := range []float64{0, 25, 50, 75, 90, 99, 100} {
			p := s.Percentile(q)
			if p < last {
				return false
			}
			last = p
		}
		return s.Percentile(0) == s.Min() && s.Percentile(100) == s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
