package experiment

import (
	"testing"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/faults"
	"wadeploy/internal/simnet"
)

// linkDown is a schedule with one link outage.
func linkDown(a, b string, at, d time.Duration) *faults.Schedule {
	return &faults.Schedule{Events: []faults.Event{{Kind: faults.LinkDown, A: a, B: b, At: at, Duration: d}}}
}

// faulted injects a one-minute WAN outage on edge1 mid-measurement of
// app under cfg.
func faulted(app AppID, cfg core.Policy) Spec {
	return Spec{
		App:        app,
		Policy:     cfg,
		Schedule:   linkDown(simnet.NodeEdge1, simnet.NodeRouter, 80*time.Second, time.Minute),
		RunOptions: RunOptions{Seed: 1, Warmup: 20 * time.Second, Duration: 3 * time.Minute},
	}
}

// In the centralized configuration a WAN outage makes edge1's clients lose
// everything: they cannot even reach the service.
func TestFaultCentralizedLosesRemoteClients(t *testing.T) {
	r, err := Run(faulted(RUBiS, core.Centralized))
	if err != nil {
		t.Fatal(err)
	}
	if r.Errors == 0 {
		t.Fatal("no request errors despite a 1-minute WAN outage")
	}
	// Roughly one group's full minute of traffic fails (~10 req/s).
	if r.Errors < 300 {
		t.Fatalf("errors = %d, want most of the outage window's requests", r.Errors)
	}
}

// In the query-caching configuration the same outage only hurts writes: the
// availability benefit of edge deployment from the paper's introduction.
func TestFaultQueryCachingKeepsBrowsersServed(t *testing.T) {
	centralized, err := Run(faulted(RUBiS, core.Centralized))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Run(faulted(RUBiS, core.QueryCaching))
	if err != nil {
		t.Fatal(err)
	}
	if cached.Errors == 0 {
		t.Fatal("writes should fail during the outage")
	}
	// Browsers (80% of traffic) keep being served from edge caches, so the
	// cached configuration loses far fewer requests.
	if float64(cached.Errors) > 0.4*float64(centralized.Errors) {
		t.Fatalf("cached errors = %d vs centralized %d; edge caches should absorb most of the outage",
			cached.Errors, centralized.Errors)
	}
	// The measurement still produced full tables.
	if cached.Samples < 1000 {
		t.Fatalf("samples = %d", cached.Samples)
	}
}

func TestFaultUnknownLinkRejected(t *testing.T) {
	s := Spec{App: PetStore, Schedule: linkDown("nowhere", "else", time.Second, time.Second), RunOptions: QuickRunOptions()}
	if _, err := Run(s); err == nil {
		t.Fatal("fault on unknown link accepted")
	}
}

func TestResultsIncludeTailLatencies(t *testing.T) {
	ps, _ := tables(t)
	r := ps[0] // centralized
	for _, c := range r.Cells {
		if c.LocalP95 < c.Local/2 || c.RemoteP95 < c.Remote/2 {
			t.Fatalf("%s/%s: p95 (%v/%v) inconsistent with means (%v/%v)",
				c.Pattern, c.Page, c.LocalP95, c.RemoteP95, c.Local, c.Remote)
		}
		if c.LocalP95 == 0 || c.RemoteP95 == 0 {
			t.Fatalf("%s/%s: missing p95", c.Pattern, c.Page)
		}
	}
}
