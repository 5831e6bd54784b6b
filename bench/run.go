package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// roundSample is one driven round: what the timed region cost the host, what
// the round cost outside it, and the simulated output.
type roundSample struct {
	Host   hostDelta
	Setup  time.Duration // building the simulation + harvesting it
	RSSMB  float64       // ru_maxrss after the round
	Out    *roundOutput
	Digest string
	// snapshot is the round's registry snapshot probe. Nothing else of the
	// round is kept: a driven round pins its whole simulation in memory.
	snapshot func()
}

func (s *roundSample) pagesPerSec() float64 {
	return ratio(float64(s.Out.Pages), s.Host.Wall.Seconds())
}

// runRound builds a fresh simulation, drives it and harvests it. The timed
// region is exactly round.drive — the call that advances the simulation
// (workload.Run / workload.RunStream). Set-up is what the round costs on
// either side of it: building the simulation before, harvesting and
// fingerprinting its output after. The harness's own collections and meter
// readings belong to neither.
func runRound(w *workloadDef, o roundOptions, hs *hostSpans) (*roundSample, error) {
	endRound := hs.open("round", "bench")
	runtime.GC() // set-up is short and allocates: it starts from a collected heap
	start := time.Now()
	r, err := prepareRound(w, o, hs)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)
	runtime.GC() // and so does the timed region
	before := readHost()
	if err := r.drive(); err != nil {
		return nil, fmt.Errorf("drive: %w", err)
	}
	end := time.Now()
	after := readHost()
	s := &roundSample{Host: before.until(end, after), RSSMB: peakRSSMB(), snapshot: r.snapshot}

	endHarvest := hs.open("harvest", "metrics")
	start = time.Now()
	if s.Out, err = r.harvest(); err != nil {
		return nil, fmt.Errorf("harvest: %w", err)
	}
	s.Digest = digest(s.Out)
	s.Setup = setup + time.Since(start)
	endHarvest(int64(len(s.Out.Counters) + len(s.Out.Series)))
	hs.record("drive", "workload", before.wall, end, int64(s.Out.Pages))
	endRound(int64(s.Out.Pages))
	return s, nil
}

// digest fingerprints a round's simulated output: every Stats series and
// every registry counter, gauge and histogram. The tracer's own trace_*
// families are left out so a traced round can be held to the untraced digest
// (tracing draws no randomness and adds no delays).
func digest(out *roundOutput) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pages %d failed %d\n", out.Pages, out.Failed)
	for _, s := range out.Series {
		fmt.Fprintf(&b, "series %s %s %t %d %d %d %d %d %d\n", s.Pattern, s.Page, s.Local, s.Count, s.MeanNs, s.MinNs, s.MaxNs, s.P50Ns, s.P99Ns)
	}
	names := make([]string, 0, len(out.Counters)+len(out.Hists))
	for name := range out.Counters {
		names = append(names, name)
	}
	for name := range out.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.HasPrefix(name, "trace_") {
			continue
		}
		if h, ok := out.Hists[name]; ok {
			fmt.Fprintf(&b, "hist %s %d %d %d\n", name, h.Count, h.SumNs, h.P99Ns)
		} else {
			fmt.Fprintf(&b, "value %s %d\n", name, out.Counters[name])
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// plan says how many rounds an invocation drives.
type plan struct {
	Discard   bool          // one untimed round first: cold templates, heap growth
	MinRounds int           // never fewer timed rounds
	Budget    time.Duration // keep adding rounds until their timed regions sum to this
}

// hardStop keeps one invocation inside the contract's 180 s on a host far
// slower than the reference box, at the price of fewer rounds.
const hardStop = 150 * time.Second

var processStart = time.Now()

// timedRounds drives the plan's rounds, every one a fresh simulation of the
// same seed and size.
func timedRounds(w *workloadDef, o roundOptions, p plan, hs *hostSpans) ([]*roundSample, error) {
	if p.Discard {
		if _, err := runRound(w, o, hs); err != nil {
			return nil, fmt.Errorf("discarded round: %w", err)
		}
	}
	var samples []*roundSample
	var timed time.Duration
	for {
		s, err := runRound(w, o, hs)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(samples)+1, err)
		}
		samples = append(samples, s)
		timed += s.Host.Wall
		// Stop at the budget, rounded to the nearest whole round.
		done := len(samples) >= p.MinRounds && timed+s.Host.Wall/2 >= p.Budget
		if done || time.Since(processStart) > hardStop {
			return samples, nil
		}
	}
}

// metricValue is one reported metric: the picked statistic of the timed
// rounds, with the median, quartiles, extremes and round count beside it.
type metricValue struct {
	Value float64 `json:"value"`
	Pick  string  `json:"pick"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock"`
	summary
	IQRPct float64 `json:"iqr_pct"`
	// Unresolved marks a host-time metric whose inter-quartile range over
	// this run's rounds exceeds its own regression bound: noise is reported,
	// not hidden.
	Unresolved bool   `json:"unresolved,omitempty"`
	Note       string `json:"note,omitempty"`
}

func newMetricValue(def metricDef, values []float64) metricValue {
	m := metricValue{Pick: def.Pick, Unit: def.Unit, Clock: def.Clock, summary: summarize(values)}
	m.IQRPct = 100 * m.iqrShare()
	m.Unresolved = def.Bound > 0 && !def.exact() && m.iqrShare() > def.Bound
	switch {
	case len(values) == 0:
	case def.Pick == pickLast:
		m.Value = values[len(values)-1]
		m.IQRPct, m.Unresolved = 0, false // not a per-round cost: no spread to speak of
	case def.Pick == pickFast && def.Better == "higher":
		m.Value = m.Q3
	case def.Pick == pickFast:
		m.Value = m.Q1
	default:
		m.Value = m.Median
	}
	return m
}

// remoteStats derives the two simulated response-time metrics from one
// round's series: the sample-weighted mean over every remote series, and the
// largest 99th percentile among remote series large enough to have one
// (>= 1000 samples, so at least 10 lie beyond it).
func remoteStats(out *roundOutput) (meanMs, p99Ms float64, p99Series string) {
	var sum, n float64
	var worst, largest seriesStat
	for _, s := range out.Series {
		if s.Local {
			continue
		}
		sum += float64(s.MeanNs) * float64(s.Count)
		n += float64(s.Count)
		if s.Count >= 1000 && s.P99Ns > worst.P99Ns {
			worst = s
		}
		if s.Count > largest.Count {
			largest = s
		}
	}
	note := ""
	if worst.Count == 0 {
		// Only a -smoke round is this small: fall back to the largest series
		// so the metric is still emitted, and say so.
		worst, note = largest, ", fewer than 1000 samples: not a resolved p99"
	}
	return ratio(sum, n) / 1e6, float64(worst.P99Ns) / 1e6,
		fmt.Sprintf("%s/%s remote, n=%d%s", worst.Pattern, worst.Page, worst.Count, note)
}

// endToEndMetrics reduces the timed rounds to the contract's end-to-end
// metrics, each by its registered pick.
func endToEndMetrics(samples []*roundSample) map[string]metricValue {
	per := make(map[string][]float64)
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var p99Series string
	for _, s := range samples {
		pages := float64(s.Out.Pages)
		meanMs, p99Ms, series := remoteStats(s.Out)
		p99Series = series // one seed: the same series every round
		add("pages_per_sec", s.pagesPerSec())
		add("cpu_us_per_page", ratio(float64(s.Host.CPU.Microseconds()), pages))
		add("allocs_per_page", ratio(float64(s.Host.Mallocs), pages))
		add("bytes_per_page", ratio(float64(s.Host.TotalAlloc), pages))
		add("peak_rss_mb", s.RSSMB)
		add("setup_s", s.Setup.Seconds())
		add("sim_remote_ms_mean", meanMs)
		add("sim_remote_ms_p99_worst", p99Ms)
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, def := range endToEnd {
		m := newMetricValue(def, per[def.Name])
		if def.Name == "sim_remote_ms_p99_worst" {
			m.Note = p99Series
		}
		out[def.Name] = m
	}
	return out
}

// gate is the correctness gate: a run whose simulated output is wrong has no
// performance worth reporting.
type gate struct {
	Failures []string `json:"failures,omitempty"`
}

func (g *gate) failf(format string, args ...any) {
	g.Failures = append(g.Failures, fmt.Sprintf(format, args...))
}

func (g *gate) ok() bool { return len(g.Failures) == 0 }

// checkRounds holds every round to: no failed page, one digest, and the
// paper's design rules that apply to the workload's configuration, as
// aggregate registry counts (a lazily registered family that is absent
// reads 0).
func (g *gate) checkRounds(w *workloadDef, samples []*roundSample) {
	for i, s := range samples {
		if s.Out.Pages == 0 {
			g.failf("round %d completed no page", i+1)
		}
		if s.Out.Failed != 0 {
			g.failf("round %d: %d of %d pages failed", i+1, s.Out.Failed, s.Out.Pages)
		}
		if s.Digest != samples[0].Digest {
			g.failf("round %d digest %s differs from round 1 digest %s (same seed)", i+1, s.Digest, samples[0].Digest)
		}
		c := s.Out.Counters
		switch w.Name {
		case "petstore-centralized":
			if v := c["rmi_wide_area_calls_total"]; v != 0 {
				g.failf("round %d: centralized made %d wide-area RMI calls, want 0", i+1, v)
			}
			if v := c["jms_published_total"]; v != 0 {
				g.failf("round %d: centralized published %d JMS messages, want 0", i+1, v)
			}
		case "rubis-async":
			if v := c["container_sync_pushes_total"]; v != 0 {
				g.failf("round %d: async updates made %d blocking pushes, want 0", i+1, v)
			}
			pub, async := c["jms_published_total"], c["container_async_publishes_total"]
			if pub != async || pub <= 0 {
				g.failf("round %d: jms_published_total %d, container_async_publishes_total %d: want equal and > 0", i+1, pub, async)
			}
		}
	}
}

// checkSameDigest holds a variant round (traced, GOMAXPROCS=1, Workers=2) to
// the reference digest.
func (g *gate) checkSameDigest(what string, got *roundSample, want string) {
	if got.Out.Failed != 0 {
		g.failf("%s: %d pages failed", what, got.Out.Failed)
	}
	if got.Digest != want {
		g.failf("%s: digest %s, want %s", what, got.Digest, want)
	}
}
