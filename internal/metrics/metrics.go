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
	"slices"
	"sort"
	"strings"
	"time"
)

// Point is one sampled value on the virtual-time axis.
type Point struct {
	T time.Duration `json:"t_ns"`
	V int64         `json:"v"`
}

// Counter is a monotonically increasing value.
type Counter struct {
	nm string
	v  int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds delta (negative deltas are a programming error but not checked on
// the hot path).
func (c *Counter) Add(delta int64) { c.v += delta }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a value that can move both ways.
type Gauge struct {
	nm string
	v  int64
}

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
	now func() time.Duration
	// byName holds the unlabelled instruments by name and the label
	// families by "name{label}". A family's children live only in the
	// family: a topology's per-link series cost no entry here.
	byName   map[string]any
	counters []*Counter // every counter, family children included
	gauges   []*Gauge
	hists    []*Histogram
	// series[i] holds counters[i]'s sampled points and gseries[i]
	// gauges[i]'s; both stay nil until the first Sample.
	series, gseries [][]Point
}

// NewRegistry builds a registry reading virtual time from now (nil means a
// clock pinned at zero).
func NewRegistry(now func() time.Duration) *Registry {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Registry{now: now, byName: make(map[string]any)}
}

// splitLabel parses a family child's name, name{label="value"}.
func splitLabel(s string) (name, label, value string, ok bool) {
	name, rest, ok := strings.Cut(s, "{")
	if !ok || !strings.HasSuffix(rest, `"}`) {
		return "", "", "", false
	}
	label, value, ok = strings.Cut(rest[:len(rest)-2], `="`)
	return name, label, value, ok
}

// lookup returns the instrument registered under name: an unlabelled one,
// or the child of a label family.
func (r *Registry) lookup(name string) (any, bool) {
	if in, ok := r.byName[name]; ok {
		return in, true
	}
	fam, label, value, ok := splitLabel(name)
	if !ok {
		return nil, false
	}
	switch v := r.byName[fam+"{"+label+"}"].(type) {
	case *CounterVec:
		return v.find(value)
	case *HistogramVec:
		return v.find(value)
	}
	return nil, false
}

// instrument returns what is registered under name, registering create()
// there on first use. Registering the same name as a different instrument
// kind panics: the schema is fixed at instrumentation sites, so a clash is a
// programming error.
func instrument[T any](r *Registry, name string, create func() T) T {
	if in, ok := r.lookup(name); ok {
		t, ok := in.(T)
		if !ok {
			panic(fmt.Sprintf("metrics: %s already registered as %T", name, in))
		}
		return t
	}
	t := create()
	r.byName[name] = t
	return t
}

func (r *Registry) newCounter(name string) *Counter {
	c := &Counter{nm: name}
	r.counters = append(r.counters, c)
	return c
}

func (r *Registry) newHistogram(name string) *Histogram {
	h := &Histogram{nm: name}
	r.hists = append(r.hists, h)
	return h
}

// Counter returns the counter registered under name, creating it on first
// use; a labelled name is a child of its CounterVec.
func (r *Registry) Counter(name string) *Counter {
	if fam, label, value, ok := splitLabel(name); ok {
		return r.CounterVec(fam, label).With(value)
	}
	return instrument(r, name, func() *Counter { return r.newCounter(name) })
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return instrument(r, name, func() *Gauge {
		g := &Gauge{nm: name}
		r.gauges = append(r.gauges, g)
		return g
	})
}

// Histogram returns the histogram registered under name, creating it on
// first use; a labelled name is a child of its HistogramVec.
func (r *Registry) Histogram(name string) *Histogram {
	if fam, label, value, ok := splitLabel(name); ok {
		return r.HistogramVec(fam, label).With(value)
	}
	return instrument(r, name, func() *Histogram { return r.newHistogram(name) })
}

// vec is a label family: its children sorted by label value, each value a
// substring of the child's full name. A sorted slice is smaller than a map,
// and a registry keeps one child per link direction of its topology.
type vec[T any] struct {
	r         *Registry
	nm, label string
	children  []child[T]
}

type child[T any] struct {
	value string
	in    T
}

// search is a binary search for value: its index, or where to insert it.
func (v *vec[T]) search(value string) (int, bool) {
	i, j := 0, len(v.children)
	for i < j {
		if h := int(uint(i+j) >> 1); v.children[h].value < value {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(v.children) && v.children[i].value == value
}

// find returns the child labelled value.
func (v *vec[T]) find(value string) (any, bool) {
	if i, ok := v.search(value); ok {
		return v.children[i].in, true
	}
	return nil, false
}

// with returns the child labelled value, creating it from its full name on
// first use.
func (v *vec[T]) with(value string, create func(name string) T) T {
	i, ok := v.search(value)
	if !ok {
		name := LabelName(v.nm, v.label, value)
		value = name[len(name)-len(value)-2 : len(name)-2]
		v.children = slices.Insert(v.children, i, child[T]{value: value, in: create(name)})
	}
	return v.children[i].in
}

// CounterVec is a family of counters keyed by one label value.
type CounterVec struct{ vec[*Counter] }

// CounterVec returns the counter family name{label=...}, creating it on
// first use.
func (r *Registry) CounterVec(name, label string) *CounterVec {
	return instrument(r, name+"{"+label+"}", func() *CounterVec {
		return &CounterVec{vec[*Counter]{r: r, nm: name, label: label}}
	})
}

// With returns the child counter for one label value, creating it on first
// use. Steady-state calls are a binary search.
func (v *CounterVec) With(value string) *Counter { return v.with(value, v.r.newCounter) }

// HistogramVec is a family of histograms keyed by one label value.
type HistogramVec struct{ vec[*Histogram] }

// HistogramVec returns the histogram family name{label=...}, creating it on
// first use.
func (r *Registry) HistogramVec(name, label string) *HistogramVec {
	return instrument(r, name+"{"+label+"}", func() *HistogramVec {
		return &HistogramVec{vec[*Histogram]{r: r, nm: name, label: label}}
	})
}

// With returns the child histogram for one label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram { return v.with(value, v.r.newHistogram) }

// CounterValue reads a counter by (possibly labeled) name; absent counters
// read as 0 so tests can assert on instruments the run never touched.
func (r *Registry) CounterValue(name string) int64 {
	if in, ok := r.lookup(name); ok {
		if c, ok := in.(*Counter); ok {
			return c.Value()
		}
	}
	return 0
}

// GaugeValue reads a gauge by name (0 when absent).
func (r *Registry) GaugeValue(name string) int64 {
	if in, ok := r.lookup(name); ok {
		if g, ok := in.(*Gauge); ok {
			return g.Value()
		}
	}
	return 0
}

// FindHistogram returns the histogram registered under name, or nil.
func (r *Registry) FindHistogram(name string) *Histogram {
	if in, ok := r.lookup(name); ok {
		if h, ok := in.(*Histogram); ok {
			return h
		}
	}
	return nil
}

// Sample appends one virtual-time point to the series of every counter and
// gauge. It is driven by an explicit tick (experiment.Spec.MetricsTick)
// so unsampled runs never grow series memory.
func (r *Registry) Sample() {
	t := r.now()
	r.series = sample(r.series, r.counters, t)
	r.gseries = sample(r.gseries, r.gauges, t)
}

func sample[T interface{ Value() int64 }](series [][]Point, ins []T, t time.Duration) [][]Point {
	series = append(series, make([][]Point, len(ins)-len(series))...)
	for i, in := range ins {
		series[i] = append(series[i], Point{T: t, V: in.Value()})
	}
	return series
}

// points copies series[i], the sampled points of the i-th instrument (nil
// when it was never sampled).
func points(series [][]Point, i int) []Point {
	if i >= len(series) {
		return nil
	}
	return append([]Point(nil), series[i]...)
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
	for i, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.nm, Value: c.v, Series: points(r.series, i)})
	}
	for i, g := range r.gauges {
		s.Gauges = append(s.Gauges, CounterSnapshot{Name: g.nm, Value: g.v, Series: points(r.gseries, i)})
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
