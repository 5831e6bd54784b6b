package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// The comparator judges two sets of runs, A (parent) and B (change), by the
// rules of the choosing-metrics guide, using only the bounds of
// BENCHMARK.json (the registry's; TestContractMatchesRegistry keeps the two
// equal).

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved" // spread wider than the bound
)

// minPairs is the fewest parent/change pairs a gain may be claimed from.
const minPairs = 10

type comparison struct {
	A, B    summary
	Pairs   int
	Won     int     // pairs in which B was strictly better
	WorseBy float64 // B's median against A's, as a share of A's; > 0 is worse
	Verdict verdict
}

// judge compares one metric. a and b are paired by index: run i of the
// parent against run i of the change (or round i against round i when each
// side is a single run).
func judge(def metricDef, a, b []float64) comparison {
	c := comparison{A: summarize(a), B: summarize(b), Pairs: min(len(a), len(b)), Verdict: unchanged}
	sign := 1.0 // lower is better
	if def.Better == "higher" {
		sign = -1
	}
	for i := 0; i < c.Pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			c.Won++
		}
	}
	if c.A.Median != 0 {
		c.WorseBy = sign * (c.B.Median - c.A.Median) / math.Abs(c.A.Median)
	} else if c.B.Median != 0 {
		c.WorseBy = sign * math.Copysign(math.Inf(1), c.B.Median)
	}
	if def.exact() {
		// Counts and virtual times repeat exactly, so any difference is real
		// and there is no spread to resolve; the bound still says how much
		// worse is a regression.
		switch {
		case c.WorseBy > def.Bound:
			c.Verdict = regressed
		case c.WorseBy < 0:
			c.Verdict = improved
		}
		return c
	}
	switch spread := math.Max(c.A.iqrShare(), c.B.iqrShare()); {
	case spread > def.Bound:
		c.Verdict = unresolved
	case c.WorseBy > def.Bound:
		c.Verdict = regressed
	case c.WorseBy < 0 && -c.WorseBy > c.A.iqrShare() && c.Pairs >= minPairs && 10*c.Won >= 9*c.Pairs:
		// A gain: the change wins nine tenths of all pairs (ties count for
		// neither side) and the medians differ by more than the spread
		// between the parent's own runs.
		c.Verdict = improved
	}
	return c
}

// side is one side's runs: a suite result file, or a directory of them in
// name order.
func loadSide(path string) ([]*suiteResult, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var runs []*suiteResult
	for _, f := range files {
		var r suiteResult
		if err := readJSON(f, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if len(r.Workloads) == 0 {
			return nil, fmt.Errorf("%s: not a suite result file (no workloads)", f)
		}
		runs = append(runs, &r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no result file", path)
	}
	return runs, nil
}

// endToEndSamples returns one side's samples of a metric: every run's
// reported value when there are several runs, the single run's rounds
// otherwise.
func endToEndSamples(runs []*suiteResult, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		w := r.Workloads[workload]
		if w == nil || w.EndToEnd[metric].N == 0 {
			continue
		}
		m := w.EndToEnd[metric]
		if len(runs) == 1 && m.Pick != pickLast {
			return m.Raw
		}
		out = append(out, m.Value)
	}
	return out
}

func perLayerSamples(runs []*suiteResult, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if w := r.Workloads[workload]; w != nil {
			if v, ok := w.PerLayer[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// compareMain prints, per (workload, metric), both medians and quartiles,
// the share of pairs won and a verdict; it fails on a regression.
func compareMain(pathA, pathB string, w io.Writer) error {
	a, err := loadSide(pathA)
	if err != nil {
		return err
	}
	b, err := loadSide(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s (%d runs, rev %s)\nB: %s (%d runs, rev %s)\n", pathA, len(a), a[0].Manifest.GitRevision, pathB, len(b), b[0].Manifest.GitRevision)
	if len(a) == 1 || len(b) == 1 {
		fmt.Fprintf(w, "one run a side: samples are the runs' rounds; a gain needs %d paired runs (bench/ab.sh)\n", minPairs)
	}
	counts := map[verdict]int{}
	var digestDiffs, exactSame, exactDiff int
	for _, wl := range workloads {
		wa, wb := a[0].Workloads[wl.Name], b[0].Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "\n%s: missing on one side, skipped\n", wl.Name)
			continue
		}
		same := "same"
		if wa.Digest != wb.Digest {
			same = "DIFFERENT simulated output"
			digestDiffs++
		}
		fmt.Fprintf(w, "\n%s  digest A %s  B %s  (%s)\n", wl.Name, wa.Digest, wb.Digest, same)
		fmt.Fprintf(w, "  %-26s %-8s %38s %38s %8s %9s  %s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B won", "B worse", "verdict")
		for _, def := range endToEnd {
			sa, sb := endToEndSamples(a, wl.Name, def.Name), endToEndSamples(b, wl.Name, def.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			c := judge(def, sa, sb)
			counts[c.Verdict]++
			change := fmt.Sprintf("%+8.2f%%", 100*c.WorseBy)
			if def.exact() || def.Clock == clockHostCount {
				// A count is reported as a count, never as a speed-up.
				change = fmt.Sprintf("%+9.4g", c.B.Median-c.A.Median)
			}
			fmt.Fprintf(w, "  %-26s %-8s %14.6g [%10.5g, %10.5g] %14.6g [%10.5g, %10.5g] %5d/%-2d %9s  %s\n",
				def.Name, def.Unit, c.A.Median, c.A.Q1, c.A.Q3, c.B.Median, c.B.Q1, c.B.Q3, c.Won, c.Pairs, change, c.Verdict)
		}
		for _, def := range perLayer {
			sa, sb := perLayerSamples(a, wl.Name, def.Name), perLayerSamples(b, wl.Name, def.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			ma, mb := median(sa), median(sb)
			mark := ""
			if def.exact() {
				if ma == mb {
					exactSame++
					continue // identical exact values are only counted
				}
				exactDiff++
				mark = "  DIFFERS (exact metric)"
			}
			fmt.Fprintf(w, "  %-44s %-8s %-3s A %14.6g  B %14.6g  %+10.4g%s\n", def.Name, def.Unit, def.Source, ma, mb, mb-ma, mark)
		}
	}
	fmt.Fprintf(w, "\nend-to-end verdicts: %d improved, %d unchanged, %d regressed, %d unresolved; %d workloads with different digests\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved], digestDiffs)
	if exactSame+exactDiff > 0 {
		fmt.Fprintf(w, "exact per-layer values (counts, virtual times): %d identical, %d differ\n", exactSame, exactDiff)
	}
	if counts[regressed] > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed beyond their bound", counts[regressed])
	}
	return nil
}
