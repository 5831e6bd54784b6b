package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"wadeploy/internal/race"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket's upper bound must map back to the same bucket, and
	// bucket bounds must tile the value space without gaps or overlaps.
	// Bucket 1887 tops out at MaxInt64; higher indexes are unreachable.
	prev := int64(-1)
	for b := 0; b < 1888; b++ {
		hi := bucketUpper(b)
		if hi <= prev {
			t.Fatalf("bucket %d: upper %d not above previous %d", b, hi, prev)
		}
		if got := bucketIndex(hi); got != b {
			t.Fatalf("bucketIndex(bucketUpper(%d)) = %d", b, got)
		}
		if got := bucketIndex(prev + 1); got != b {
			t.Fatalf("bucketIndex(%d) = %d, want %d", prev+1, got, b)
		}
		prev = hi
	}
}

func TestBucketRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(int64(10 * time.Hour))
		lo, hi := BucketRange(time.Duration(v))
		if time.Duration(v) < lo || time.Duration(v) > hi {
			t.Fatalf("value %d outside its bucket [%d, %d]", v, lo, hi)
		}
		if v >= subBuckets {
			width := float64(hi - lo + 1)
			if width/float64(v) > 1.0/subBuckets*1.01 {
				t.Fatalf("value %d: bucket width %v exceeds %.1f%% relative error", v, width, 100.0/subBuckets)
			}
		}
	}
}

func TestHistogramExactScalars(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(50) != 0 {
		t.Fatal("zero-value histogram must read as empty")
	}
	vals := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond, 50 * time.Millisecond}
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 10*time.Millisecond || h.Max() != 50*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Mean() != 30*time.Millisecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Sum() != 150*time.Millisecond {
		t.Fatalf("Sum = %v", h.Sum())
	}
	if h.Quantile(0) != 10*time.Millisecond || h.Quantile(100) != 50*time.Millisecond {
		t.Fatalf("Quantile(0)/Quantile(100) = %v/%v", h.Quantile(0), h.Quantile(100))
	}
	// Mid-quantiles resolve to the ranked sample's bucket, at most one
	// bucket width above the exact value.
	p50 := h.Quantile(50)
	_, hi := BucketRange(30 * time.Millisecond)
	if p50 < 30*time.Millisecond || p50 > hi {
		t.Fatalf("Quantile(50) = %v, want within [30ms, %v]", p50, hi)
	}
}

func TestHistogramQuantileDriftVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	var exact []time.Duration
	for i := 0; i < 5000; i++ {
		v := time.Duration(rng.Int63n(int64(2 * time.Second)))
		h.Observe(v)
		exact = append(exact, v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{1, 10, 25, 50, 75, 90, 95, 99} {
		r := int(math.Round(q / 100 * float64(len(exact)-1)))
		want := exact[r]
		got := h.Quantile(q)
		lo, hi := BucketRange(want)
		if got < lo || got > hi {
			t.Fatalf("Quantile(%v) = %v, exact %v, outside bucket [%v, %v]", q, got, want, lo, hi)
		}
	}
}

func TestRegistryIdempotentAndKinds(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("a_total")
	if r.Counter("a_total") != c {
		t.Fatal("Counter not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a_total as gauge should panic")
		}
	}()
	r.Gauge("a_total")
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry(nil)
	v := r.CounterVec("x_total", "table")
	v.With("product").Add(3)
	v.With("product").Inc()
	v.With("category").Inc()
	if got := r.CounterValue(`x_total{table="product"}`); got != 4 {
		t.Fatalf("product child = %d", got)
	}
	if got := r.CounterValue(LabelName("x_total", "table", "category")); got != 1 {
		t.Fatalf("category child = %d", got)
	}
	if got := r.CounterValue("missing_total"); got != 0 {
		t.Fatalf("missing counter = %d", got)
	}
}

// TestVecChildrenByFullName: family children are kept only in their family,
// yet every name-keyed entry point finds them — registering a child's full
// name returns the child, registering it as another kind panics — and each
// is exported exactly once.
func TestVecChildrenByFullName(t *testing.T) {
	r := NewRegistry(nil)
	h := r.HistogramVec("wait_ns", "link").With("a>b")
	h.Observe(time.Millisecond)
	if r.FindHistogram(`wait_ns{link="a>b"}`) != h || r.Histogram(`wait_ns{link="a>b"}`) != h {
		t.Fatal("histogram child not found by its full name")
	}
	early := r.Counter(`bytes_total{link="a>b"}`) // full name first, family later
	if r.CounterVec("bytes_total", "link").With("a>b") != early {
		t.Fatal("family child registered by full name first is a second counter")
	}
	for _, name := range []string{`wait_ns{link="b>a"}`, `wait_ns{link=}`, `wait_ns{link="a>b"`, `nofamily{x="y"}`} {
		if r.FindHistogram(name) != nil {
			t.Fatalf("FindHistogram(%s) found a child that was never registered", name)
		}
	}
	s := r.Snapshot()
	if len(s.Counters) != 1 || len(s.Histograms) != 1 || s.Histograms[0].Name != `wait_ns{link="a>b"}` || s.Histograms[0].Count != 1 {
		t.Fatalf("snapshot: %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a histogram child's full name as a counter should panic")
		}
	}()
	r.Counter(`wait_ns{link="a>b"}`)
}

func TestSampleAndSnapshotDeterminism(t *testing.T) {
	build := func() *Registry {
		now := time.Duration(0)
		r := NewRegistry(func() time.Duration { return now })
		c := r.Counter("b_total")
		a := r.Counter("a_total")
		g := r.Gauge("live")
		h := r.Histogram("lat_ns")
		for i := 0; i < 3; i++ {
			now = time.Duration(i+1) * time.Second
			c.Add(int64(i))
			a.Inc()
			g.Set(int64(10 - i))
			h.Observe(time.Duration(i+1) * time.Millisecond)
			r.Sample()
		}
		return r
	}
	s1, err1 := json.Marshal(build().Snapshot())
	s2, err2 := json.Marshal(build().Snapshot())
	if err1 != nil || err2 != nil {
		t.Fatalf("marshal: %v / %v", err1, err2)
	}
	if string(s1) != string(s2) {
		t.Fatalf("snapshots differ:\n%s\n%s", s1, s2)
	}
	var snap Snapshot
	if err := json.Unmarshal(s1, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a_total" || snap.Counters[1].Name != "b_total" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	if len(snap.Counters[0].Series) != 3 || snap.Counters[0].Series[2].T != 3*time.Second {
		t.Fatalf("series not sampled: %+v", snap.Counters[0].Series)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 3 {
		t.Fatalf("histogram snapshot: %+v", snap.Histograms)
	}
}

func TestUnsampledSeriesStayEmpty(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("a_total")
	for i := 0; i < 100; i++ {
		c.Inc()
	}
	if s := r.Snapshot(); len(s.Counters[0].Series) != 0 {
		t.Fatalf("series grew without Sample: %d points", len(s.Counters[0].Series))
	}
}

// Alloc guards: the instrument hot paths must be allocation-free in steady
// state, since they run inside the sim engine's zero-alloc event loop.
func TestInstrumentAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	r := NewRegistry(nil)
	c := r.Counter("c_total")
	g := r.Gauge("g")
	v := r.CounterVec("v_total", "k")
	h := r.Histogram("h_ns")
	// Warm: materialize the vec child and grow the histogram buckets.
	v.With("x").Inc()
	for i := 0; i < 100; i++ {
		h.Observe(123 * time.Millisecond)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(7) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { v.With("x").Inc() }); n != 0 {
		t.Fatalf("CounterVec.With(existing) allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123 * time.Millisecond) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op", n)
	}
}

// Overhead guard: these pin the per-operation cost of enabled-but-unsampled
// instruments.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry(nil).Counter("c_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry(nil).Histogram("h_ns")
	h.Observe(123 * time.Millisecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(123 * time.Millisecond)
	}
}

func BenchmarkCounterVecWith(b *testing.B) {
	v := NewRegistry(nil).CounterVec("v_total", "k")
	v.With("product").Inc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("product").Inc()
	}
}
