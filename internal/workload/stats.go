// Package workload implements the paper's client simulation methodology
// (Section 3.3): service usage patterns (Browser and Buyer/Bidder sessions),
// soft think-time pacing that keeps offered load independent of response
// times, an 80/20 browser/writer mix split across client groups, warm-up
// discard, and per-page response-time statistics split by client locality.
package workload

import (
	"fmt"
	"sort"
	"time"

	"wadeploy/internal/metrics"
)

// SeriesKey identifies one measured series: a page requested under a usage
// pattern by a client group class (local or remote).
type SeriesKey struct {
	Pattern string // "Browser", "Buyer", "Bidder", ...
	Page    string
	Local   bool
}

// Summary accumulates one series into a log-bucketed histogram: memory is
// bounded by the bucket count regardless of run length (an hour-long run
// used to retain every sample). Count, sum, min, max and mean stay exact;
// percentiles are nearest-rank over the buckets, so they can sit at most
// one bucket width (~3%) above the exact sample value.
type Summary struct {
	hist metrics.Histogram
}

func (s *Summary) add(d time.Duration) { s.hist.Observe(d) }

// Count returns the number of samples.
func (s *Summary) Count() int { return int(s.hist.Count()) }

// Mean returns the average response time.
func (s *Summary) Mean() time.Duration { return s.hist.Mean() }

// Min and Max return the observed extremes.
func (s *Summary) Min() time.Duration { return s.hist.Min() }
func (s *Summary) Max() time.Duration { return s.hist.Max() }

// Percentile returns the q-th percentile (q in [0,100]) by nearest rank:
// the rank is rounded to the closest sample instead of truncated, so e.g.
// P50 of an even-sized series picks the nearer middle sample rather than
// always the lower one.
func (s *Summary) Percentile(q float64) time.Duration {
	return s.hist.Quantile(q)
}

// Stats accumulates response-time samples across all series, discarding
// samples recorded before the warm-up boundary.
type Stats struct {
	warmEnd time.Duration
	series  map[SeriesKey]*Summary
	errors  map[string]int
}

// NewStats creates a collector that ignores samples before warmEnd.
func NewStats(warmEnd time.Duration) *Stats {
	return &Stats{
		warmEnd: warmEnd,
		series:  make(map[SeriesKey]*Summary),
		errors:  make(map[string]int),
	}
}

// Record stores one response-time sample taken at virtual time now.
func (st *Stats) Record(now time.Duration, key SeriesKey, rt time.Duration) {
	if now < st.warmEnd {
		return
	}
	s, ok := st.series[key]
	if !ok {
		s = &Summary{}
		st.series[key] = s
	}
	s.add(rt)
}

// RecordError counts a failed request (also subject to warm-up discard).
func (st *Stats) RecordError(now time.Duration, page string) {
	if now < st.warmEnd {
		return
	}
	st.errors[page]++
}

// Merge folds every series and error count of o into st. Histogram merging
// is exact in count/sum/min/max, so per-shard Stats merged in any order give
// the same totals as a single collector (the streaming engine relies on
// this for worker-count-independent results).
func (st *Stats) Merge(o *Stats) {
	if o == nil {
		return
	}
	for k, s := range o.series {
		dst, ok := st.series[k]
		if !ok {
			dst = &Summary{}
			st.series[k] = dst
		}
		dst.hist.Merge(&s.hist)
	}
	for page, n := range o.errors {
		st.errors[page] += n
	}
}

// Errors returns the total number of failed requests after warm-up.
func (st *Stats) Errors() int {
	total := 0
	for _, n := range st.errors {
		total += n
	}
	return total
}

// Series returns the summary for a key, or nil.
func (st *Stats) Series(key SeriesKey) *Summary { return st.series[key] }

// Mean returns the mean for a key (0 when unobserved).
func (st *Stats) Mean(key SeriesKey) time.Duration {
	if s := st.series[key]; s != nil {
		return s.Mean()
	}
	return 0
}

// Keys returns all observed keys, sorted for deterministic output.
func (st *Stats) Keys() []SeriesKey {
	keys := make([]SeriesKey, 0, len(st.series))
	for k := range st.series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Pattern != b.Pattern {
			return a.Pattern < b.Pattern
		}
		if a.Page != b.Page {
			return a.Page < b.Page
		}
		return a.Local && !b.Local
	})
	return keys
}

// SessionMean returns the mean response time across every page of a pattern
// for one locality class, weighted by observed request counts — the
// quantity plotted in the paper's Figures 7 and 8.
func (st *Stats) SessionMean(pattern string, local bool) time.Duration {
	var sum time.Duration
	n := 0
	for k, s := range st.series {
		if k.Pattern == pattern && k.Local == local {
			sum += s.hist.Sum()
			n += s.Count()
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// TotalSamples returns the total number of recorded samples.
func (st *Stats) TotalSamples() int {
	n := 0
	for _, s := range st.series {
		n += s.Count()
	}
	return n
}

// String renders a compact per-series report.
func (st *Stats) String() string {
	out := ""
	for _, k := range st.Keys() {
		s := st.series[k]
		loc := "remote"
		if k.Local {
			loc = "local"
		}
		out += fmt.Sprintf("%-8s %-16s %-6s n=%-6d mean=%v\n", k.Pattern, k.Page, loc, s.Count(), s.Mean().Round(time.Millisecond))
	}
	return out
}
