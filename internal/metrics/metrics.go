// Package metrics is a deterministic, virtual-clock-native metrics registry
// for the simulation: counters, gauges and log-bucketed latency histograms,
// with label-vector variants for per-link/per-topic/per-table series. Every
// sim.Env owns one registry; instruments are plain fields mutated by the one
// goroutine the engine runs at a time, so no instrument takes a lock and the
// hot-path operations (Add, Set, Observe) are allocation-free in steady
// state. Snapshots are sorted by name, so the same seed yields byte-identical
// exports.
package metrics

import (
	"fmt"
	"sort"
	"time"
)

// Point is one sampled value on the virtual-time axis.
type Point struct {
	T time.Duration `json:"t_ns"`
	V int64         `json:"v"`
}

// Counter is a monotonically increasing value.
type Counter struct {
	nm     string
	v      int64
	series []Point
}

// Name returns the registered name.
func (c *Counter) Name() string { return c.nm }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds delta (negative deltas are a programming error but not checked on
// the hot path).
func (c *Counter) Add(delta int64) { c.v += delta }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a value that can move both ways.
type Gauge struct {
	nm     string
	v      int64
	series []Point
}

// Name returns the registered name.
func (g *Gauge) Name() string { return g.nm }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v = v }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v += delta }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// LabelName renders the registered name of a labeled child instrument,
// e.g. LabelName("sqldb_table_statements_total", "table", "product") →
// `sqldb_table_statements_total{table="product"}`.
func LabelName(name, label, value string) string {
	return name + "{" + label + `="` + value + `"}`
}

// Registry holds the instruments of one simulation environment. The zero
// value is not usable; construct with NewRegistry.
type Registry struct {
	now      func() time.Duration
	byName   map[string]any
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// NewRegistry builds a registry reading virtual time from now (nil means a
// clock pinned at zero).
func NewRegistry(now func() time.Duration) *Registry {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Registry{now: now, byName: make(map[string]any)}
}

// Counter returns the counter registered under name, creating it on first
// use. Registering the same name as a different instrument kind panics: the
// schema is fixed at instrumentation sites, so a clash is a programming
// error.
func (r *Registry) Counter(name string) *Counter {
	if in, ok := r.byName[name]; ok {
		c, ok := in.(*Counter)
		if !ok {
			panic(fmt.Sprintf("metrics: %s already registered as %T", name, in))
		}
		return c
	}
	c := &Counter{nm: name}
	r.byName[name] = c
	r.counters = append(r.counters, c)
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if in, ok := r.byName[name]; ok {
		g, ok := in.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("metrics: %s already registered as %T", name, in))
		}
		return g
	}
	g := &Gauge{nm: name}
	r.byName[name] = g
	r.gauges = append(r.gauges, g)
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if in, ok := r.byName[name]; ok {
		h, ok := in.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("metrics: %s already registered as %T", name, in))
		}
		return h
	}
	h := &Histogram{nm: name}
	r.byName[name] = h
	r.hists = append(r.hists, h)
	return h
}

// CounterVec is a family of counters keyed by one label value.
type CounterVec struct {
	r        *Registry
	nm       string
	label    string
	children map[string]*Counter
}

// CounterVec returns the counter family name{label=...}, creating it on
// first use.
func (r *Registry) CounterVec(name, label string) *CounterVec {
	key := name + "{" + label + "}"
	if in, ok := r.byName[key]; ok {
		v, ok := in.(*CounterVec)
		if !ok {
			panic(fmt.Sprintf("metrics: %s already registered as %T", key, in))
		}
		return v
	}
	v := &CounterVec{r: r, nm: name, label: label, children: make(map[string]*Counter)}
	r.byName[key] = v
	return v
}

// With returns the child counter for one label value, creating it on first
// use. Steady-state calls are a single map lookup.
func (v *CounterVec) With(value string) *Counter {
	if c, ok := v.children[value]; ok {
		return c
	}
	c := v.r.Counter(LabelName(v.nm, v.label, value))
	v.children[value] = c
	return c
}

// HistogramVec is a family of histograms keyed by one label value.
type HistogramVec struct {
	r        *Registry
	nm       string
	label    string
	children map[string]*Histogram
}

// HistogramVec returns the histogram family name{label=...}, creating it on
// first use.
func (r *Registry) HistogramVec(name, label string) *HistogramVec {
	key := name + "{" + label + "}"
	if in, ok := r.byName[key]; ok {
		v, ok := in.(*HistogramVec)
		if !ok {
			panic(fmt.Sprintf("metrics: %s already registered as %T", key, in))
		}
		return v
	}
	v := &HistogramVec{r: r, nm: name, label: label, children: make(map[string]*Histogram)}
	r.byName[key] = v
	return v
}

// With returns the child histogram for one label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	if h, ok := v.children[value]; ok {
		return h
	}
	h := v.r.Histogram(LabelName(v.nm, v.label, value))
	v.children[value] = h
	return h
}

// CounterValue reads a counter by (possibly labeled) name; absent counters
// read as 0 so tests can assert on instruments the run never touched.
func (r *Registry) CounterValue(name string) int64 {
	if in, ok := r.byName[name]; ok {
		if c, ok := in.(*Counter); ok {
			return c.Value()
		}
	}
	return 0
}

// GaugeValue reads a gauge by name (0 when absent).
func (r *Registry) GaugeValue(name string) int64 {
	if in, ok := r.byName[name]; ok {
		if g, ok := in.(*Gauge); ok {
			return g.Value()
		}
	}
	return 0
}

// FindHistogram returns the histogram registered under name, or nil.
func (r *Registry) FindHistogram(name string) *Histogram {
	if in, ok := r.byName[name]; ok {
		if h, ok := in.(*Histogram); ok {
			return h
		}
	}
	return nil
}

// Sample appends one virtual-time point to the series of every counter and
// gauge. It is driven by an explicit tick (experiment.RunOptions.MetricsTick)
// so unsampled runs never grow series memory.
func (r *Registry) Sample() {
	t := r.now()
	for _, c := range r.counters {
		c.series = append(c.series, Point{T: t, V: c.v})
	}
	for _, g := range r.gauges {
		g.series = append(g.series, Point{T: t, V: g.v})
	}
}

// BucketCount is one non-empty histogram bucket in a snapshot.
type BucketCount struct {
	UpperNs int64 `json:"upper_ns"`
	Count   int64 `json:"count"`
}

// CounterSnapshot is the exported state of one counter or gauge.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Value  int64   `json:"value"`
	Series []Point `json:"series,omitempty"`
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	SumNs   int64         `json:"sum_ns"`
	MinNs   int64         `json:"min_ns"`
	MaxNs   int64         `json:"max_ns"`
	P50Ns   int64         `json:"p50_ns"`
	P95Ns   int64         `json:"p95_ns"`
	P99Ns   int64         `json:"p99_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a full, deterministic export of a registry: instruments sorted
// by name, series in sampling order. Marshaling the same snapshot twice (or
// the snapshots of two same-seed runs) yields identical bytes.
type Snapshot struct {
	CapturedNs int64               `json:"captured_ns"`
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []CounterSnapshot   `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the named counter's value, 0 when the run never registered
// it (lazily registered families stay absent from runs that do not arm them).
func (s *Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Histogram returns the named histogram, or nil.
func (s *Snapshot) Histogram(name string) *HistogramSnapshot {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}

// Snapshot captures the current state of every instrument.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{CapturedNs: int64(r.now())}
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.nm, Value: c.v, Series: append([]Point(nil), c.series...)})
	}
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, CounterSnapshot{Name: g.nm, Value: g.v, Series: append([]Point(nil), g.series...)})
	}
	for _, h := range r.hists {
		hs := HistogramSnapshot{
			Name:  h.nm,
			Count: h.count,
			SumNs: h.sum,
			MinNs: int64(h.Min()),
			MaxNs: int64(h.Max()),
			P50Ns: int64(h.Quantile(50)),
			P95Ns: int64(h.Quantile(95)),
			P99Ns: int64(h.Quantile(99)),
		}
		for b, c := range h.buckets {
			if c > 0 {
				hs.Buckets = append(hs.Buckets, BucketCount{UpperNs: bucketUpper(b), Count: c})
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
