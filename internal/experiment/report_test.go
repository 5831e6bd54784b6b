package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/metrics"
	"wadeploy/internal/petstore"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenResults is a tiny synthetic two-configuration run with hand-picked
// values, so each formatter's exact layout is pinned.
func goldenResults() []*Result {
	mk := func(cfg core.Policy, localMS, remoteMS int) *Result {
		r := &Result{
			Spec: Spec{App: PetStore, Policy: cfg},
			SessionMeans: map[string]map[bool]time.Duration{
				petstore.PatternBrowser: {
					true:  time.Duration(localMS) * time.Millisecond,
					false: time.Duration(remoteMS) * time.Millisecond,
				},
				petstore.PatternBuyer: {
					true:  time.Duration(localMS+5) * time.Millisecond,
					false: time.Duration(remoteMS+5) * time.Millisecond,
				},
			},
			Samples:     1000,
			Errors:      0,
			MainCPUUtil: 0.421,
			EdgeCPUUtil: 0.137,
		}
		for _, page := range []string{"Main", "Category"} {
			r.Cells = append(r.Cells, PageCell{
				Pattern:   petstore.PatternBrowser,
				Page:      page,
				Local:     time.Duration(localMS) * time.Millisecond,
				Remote:    time.Duration(remoteMS) * time.Millisecond,
				LocalP95:  time.Duration(localMS*2) * time.Millisecond,
				RemoteP95: time.Duration(remoteMS*2) * time.Millisecond,
			})
		}
		return r
	}
	results := []*Result{
		mk(core.Centralized, 20, 440),
		mk(core.RemoteFacade, 21, 230),
	}
	results[0].Metrics = &metrics.Snapshot{
		Counters: []metrics.CounterSnapshot{
			{Name: "rmi_remote_calls_total", Value: 4400},
			{Name: `web_requests_total{server="main"}`, Value: 999}, // labeled: omitted
		},
		Histograms: []metrics.HistogramSnapshot{
			{Name: "rmi_remote_call_ns", Count: 10, SumNs: int64(2 * time.Second)},
		},
	}
	results[1].Metrics = &metrics.Snapshot{
		Counters: []metrics.CounterSnapshot{
			{Name: "rmi_remote_calls_total", Value: 2300},
			{Name: "container_querycache_hits_total", Value: 50},
		},
	}
	return results
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file when the -update flag is set.
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
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s output changed (run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestFormatTableGolden(t *testing.T) {
	checkGolden(t, "format_table", FormatTable(goldenResults()))
}

func TestFormatTableP95Golden(t *testing.T) {
	checkGolden(t, "format_table_p95", FormatTableP95(goldenResults()))
}

func TestFormatFigureGolden(t *testing.T) {
	checkGolden(t, "format_figure", FormatFigure(goldenResults()))
}

func TestFormatDiagnosticsGolden(t *testing.T) {
	results := goldenResults()
	for _, r := range results {
		r.Metrics.Counters = append(r.Metrics.Counters,
			metrics.CounterSnapshot{Name: "jms_published_total", Value: 12},
			metrics.CounterSnapshot{Name: "jms_delivered_total", Value: 24})
	}
	checkGolden(t, "format_diagnostics", FormatDiagnostics(results))
}

func TestFormatMetricsComparisonGolden(t *testing.T) {
	checkGolden(t, "format_metrics_comparison", FormatMetricsComparison(goldenResults()))
}

func TestFormatEmptyResults(t *testing.T) {
	for name, got := range map[string]string{
		"FormatTable":             FormatTable(nil),
		"FormatTableP95":          FormatTableP95(nil),
		"FormatFigure":            FormatFigure(nil),
		"FormatMetricsComparison": FormatMetricsComparison(nil),
	} {
		if got != "(no results)\n" {
			t.Errorf("%s(nil) = %q, want \"(no results)\\n\"", name, got)
		}
	}
}
