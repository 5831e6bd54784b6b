package experiment

import (
	"strings"
	"testing"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/faults"
	"wadeploy/internal/petstore"
)

// availQuickSpec is the availability-test run: short enough for CI, with
// enough pre-outage traffic (5 virtual minutes) that the edge caches have
// seen the whole key space before the WAN link drops. The canonical outage
// window is [Warmup+Duration/4, Warmup+Duration/2] = [5m, 7m].
func availQuickSpec() Spec {
	opts := QuickRunOptions()
	opts.Warmup = 3 * time.Minute
	opts.Duration = 8 * time.Minute
	return Spec{App: PetStore, Schedule: faults.Canonical(opts.Warmup, opts.Duration), RunOptions: opts}
}

func availResults(t *testing.T) []*Result {
	t.Helper()
	results, err := RunAll(Table(availQuickSpec(), false))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(core.Configs) {
		t.Fatalf("got %d results, want %d", len(results), len(core.Configs))
	}
	return results
}

// TestAvailabilityInvariants pins the experiment's headline claim: under the
// canonical WAN outage, configurations that cache state on the edges keep
// serving browse pages to the partitioned edge's clients, while the
// centralized configuration loses essentially all of them. It also asserts
// that each resilience mechanism actually fired.
func TestAvailabilityInvariants(t *testing.T) {
	results := availResults(t)
	split := func(cfg core.Policy) (browse, write PageAvail) {
		return byConfig(results, cfg).Observed.split(petstore.PatternBrowser)
	}

	cent, _ := split(core.Centralized)
	if cent.OK+cent.Fail == 0 {
		t.Fatal("centralized saw no browse traffic in the window")
	}
	if rate := cent.SuccessRate(); rate > 0.05 {
		t.Errorf("centralized browse success = %.1f%%, want ~0%% (clients cut off from main)", 100*rate)
	}
	for _, cfg := range []core.Policy{core.QueryCaching, core.AsyncUpdates} {
		browse, write := split(cfg)
		if browse.OK+browse.Fail == 0 {
			t.Fatalf("%s saw no browse traffic in the window", cfg)
		}
		if rate := browse.SuccessRate(); rate < 0.95 {
			t.Errorf("%s browse success = %.1f%%, want >= 95%% (edge caches carry the outage)", cfg, 100*rate)
		}
		// Commit-path pages must fail (no WAN path to the shared state) —
		// degradation is expected, not silent success.
		if write.Fail == 0 {
			t.Errorf("%s write failures = 0, want > 0 during the partition", cfg)
		}
	}

	// Every resilience family fired somewhere across the five runs.
	totals := make(map[string]int64)
	families := []string{
		"rmi_retries_total",
		"rmi_call_timeouts_total",
		"rmi_breaker_fastfail_total",
		`rmi_breaker_transitions_total{to="open"}`,
		"container_stale_serves_total",
		"jms_redeliveries_total",
		"simnet_dropped_total",
		`faults_injected_total{kind="link-down"}`,
	}
	for _, r := range results {
		for _, name := range families {
			totals[name] += r.Metrics.Counter(name)
		}
	}
	for _, name := range families {
		if totals[name] == 0 {
			t.Errorf("metric family %s never fired across the availability runs", name)
		}
	}
}

func TestFormatAvailability(t *testing.T) {
	results := availResults(t)
	out := FormatAvailability(results)
	for _, want := range []string{"Availability on", "browse%", "write%", "Centralized application", "Asynchronous updates"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}
