package experiment

import (
	"testing"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/petstore"
	"wadeploy/internal/trace"
)

// blameReport builds a tiny synthetic report with hand-picked blame values,
// so the formatters' exact layout is pinned.
func blameReport() *TraceReport {
	agg := trace.NewAggregator()
	add := func(pattern, page string, local bool, svc, wan, queue time.Duration, link string) {
		t := &trace.Trace{Pattern: pattern, Page: page, Local: local}
		var b trace.PathBlame
		b.Total = svc + wan + queue
		b.ByCause[trace.CauseService] = svc
		b.ByCause[trace.CauseWAN] = wan
		b.ByCause[trace.CauseQueue] = queue
		if link != "" {
			b.Links = map[string]time.Duration{link: wan}
		}
		agg.Add(t, b)
	}
	add(petstore.PatternBrowser, petstore.PageProduct, false, 20*time.Millisecond, 120*time.Millisecond, 0, "edge-1->main")
	add(petstore.PatternBrowser, petstore.PageMain, false, 18*time.Millisecond, 0, 2*time.Millisecond, "")
	add(petstore.PatternBrowser, petstore.PageProduct, true, 22*time.Millisecond, 0, 3*time.Millisecond, "")
	add(petstore.PatternBuyer, petstore.PageCommit, false, 35*time.Millisecond, 80*time.Millisecond, 0, "edge-1->main")
	return &TraceReport{Blame: agg, Sampled: 4}
}

func blameResults() []*Result {
	return []*Result{
		{Spec: Spec{App: PetStore, Policy: core.Centralized}, Trace: blameReport()},
		{Spec: Spec{App: PetStore, Policy: core.QueryCaching}, Trace: blameReport()},
	}
}

func TestFormatBlameGolden(t *testing.T) {
	checkGolden(t, "format_blame", FormatBlame(blameResults()))
}

func TestFormatBlamePagesGolden(t *testing.T) {
	checkGolden(t, "format_blame_pages", FormatBlamePages(blameResults()[0]))
}

// traceRun is a short traced run of cfg: sample every page (the run is
// small), modest recorder.
func traceRun(cfg core.Policy) Spec {
	return Spec{
		App:        PetStore,
		Policy:     cfg,
		Trace:      &trace.Options{SampleEvery: 1, MaxTraces: 64},
		RunOptions: RunOptions{Seed: 1, Warmup: 20 * time.Second, Duration: 2 * time.Minute},
	}
}

// causeShares sums a run's blame for (pattern, locality) and returns the
// service and WAN fractions of the critical path.
func causeShares(t *testing.T, r *Result, pattern string, local bool) (svc, wan float64) {
	t.Helper()
	if r.Trace == nil {
		t.Fatal("run has no trace report")
	}
	var total, svcD, wanD time.Duration
	for _, e := range r.Trace.Blame.Pages() {
		if e.Key.Pattern != pattern || e.Key.Local != local {
			continue
		}
		total += e.Agg.Total
		svcD += e.Agg.ByCause[trace.CauseService]
		wanD += e.Agg.ByCause[trace.CauseWAN]
	}
	if total == 0 {
		t.Fatalf("no blame recorded for %s local=%v", pattern, local)
	}
	return float64(svcD) / float64(total), float64(wanD) / float64(total)
}

// TestBlameReproducesPaperStory pins the paper's Section 5 explanation
// mechanically: under the centralized configuration a remote client's browse
// pages are dominated by WAN wait, while the query-caching configuration
// turns the same pages into (edge-local) service time.
func TestBlameReproducesPaperStory(t *testing.T) {
	central, err := Run(traceRun(core.Centralized))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Run(traceRun(core.QueryCaching))
	if err != nil {
		t.Fatal(err)
	}
	_, wanCentral := causeShares(t, central, petstore.PatternBrowser, false)
	if wanCentral <= 0.5 {
		t.Errorf("centralized remote browse: WAN share %.2f, want > 0.5", wanCentral)
	}
	svcCached, wanCached := causeShares(t, cached, petstore.PatternBrowser, false)
	if svcCached <= 0.5 {
		t.Errorf("query-caching remote browse: service share %.2f, want > 0.5", svcCached)
	}
	if wanCached >= wanCentral {
		t.Errorf("query caching did not cut WAN blame: %.2f -> %.2f", wanCentral, wanCached)
	}
	// Local clients never cross the wide area in either configuration.
	_, wanLocal := causeShares(t, central, petstore.PatternBrowser, true)
	if wanLocal != 0 {
		t.Errorf("centralized local browse has WAN blame %.2f, want 0", wanLocal)
	}
}
