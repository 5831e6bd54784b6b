package experiment

import (
	"strings"
	"testing"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/petstore"
	"wadeploy/internal/simnet"
)

func sweepOpts() RunOptions {
	return RunOptions{Seed: 1, Warmup: 10 * time.Second, Duration: 90 * time.Second}
}

// latencySweep runs app under cfg once per WAN one-way latency: any
// server-to-server path crosses both router legs of the star.
func latencySweep(t *testing.T, app AppID, cfg core.Policy, oneWays ...time.Duration) [][4]time.Duration {
	t.Helper()
	specs := make([]Spec, len(oneWays))
	for i, wan := range oneWays {
		leg := simnet.LinkClass{OneWay: wan / 2}
		specs[i] = Spec{App: app, Policy: cfg, Topology: simnet.HierarchySpec{Backbone: leg, Metro: leg}, RunOptions: sweepOpts()}
	}
	return sweep(t, specs)
}

// sweep runs specs and returns each run's session means.
func sweep(t *testing.T, specs []Spec) [][4]time.Duration {
	t.Helper()
	results, err := RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][4]time.Duration, len(results))
	for i, r := range results {
		out[i] = sessionMeans(r)
	}
	return out
}

// The indexes of sessionMeans.
const (
	localBrowse = iota
	remoteBrowse
	localWrite
	remoteWrite
)

func TestLatencySweepCentralizedScalesWithWAN(t *testing.T) {
	pts := latencySweep(t, PetStore, core.Centralized, 25*time.Millisecond, 100*time.Millisecond, 250*time.Millisecond)
	// Remote browser pays ~4x the one-way latency (2 round trips) per page:
	// strictly increasing, roughly linear.
	for i := 1; i < len(pts); i++ {
		if pts[i][remoteBrowse] <= pts[i-1][remoteBrowse] {
			t.Fatalf("remote browser not increasing: %v", pts)
		}
	}
	// Local browser is latency-insensitive.
	spread := pts[2][localBrowse] - pts[0][localBrowse]
	if spread < 0 {
		spread = -spread
	}
	if spread > 20*time.Millisecond {
		t.Fatalf("local browser varied %v across WAN latencies", spread)
	}
	// The 250ms point should cost roughly 2x the WAN delta of the 100ms
	// point for remote clients (4 one-way crossings per page).
	d100 := pts[1][remoteBrowse] - pts[1][localBrowse]
	d250 := pts[2][remoteBrowse] - pts[2][localBrowse]
	ratio := float64(d250) / float64(d100)
	if ratio < 2.2 || ratio > 2.8 {
		t.Fatalf("delta ratio = %v, want ~2.5 (linear in latency)", ratio)
	}
}

func TestLatencySweepFinalConfigInsulatesBrowsers(t *testing.T) {
	pts := latencySweep(t, RUBiS, core.AsyncUpdates, 50*time.Millisecond, 300*time.Millisecond)
	// Remote browsers stay near-local even when the WAN gets 6x slower.
	for i, pt := range pts {
		if pt[remoteBrowse] > pt[localBrowse]+40*time.Millisecond {
			t.Fatalf("remote browser %v not insulated at point %d", pt[remoteBrowse], i)
		}
	}
	// Writers still cross the WAN once, so they do feel the latency.
	if pts[1][remoteWrite] <= pts[0][remoteWrite] {
		t.Fatalf("remote writer insensitive to WAN latency: %v", pts)
	}
}

func TestLoadSweepQueueingGrowsWithLoad(t *testing.T) {
	var specs []Spec
	for _, load := range []float64{0.5, 1, 3} {
		specs = append(specs, Spec{App: PetStore, Policy: core.Centralized, Load: load, RunOptions: sweepOpts()})
	}
	pts := sweep(t, specs)
	// Response times are monotone nondecreasing in load (CPU queueing),
	// and 3x load on a single server must cost measurably more.
	if pts[2][localBrowse] <= pts[0][localBrowse] {
		t.Fatalf("no queueing effect: %v", pts)
	}
}

// TestSweepsRunTheOneBody: a sweep point at the paper's operating value is
// the paper run — the 100 ms latency point and the scale-1 load point
// measure the same session means as the zero spec's star at its load.
func TestSweepsRunTheOneBody(t *testing.T) {
	base := Spec{App: RUBiS, Policy: core.QueryCaching, RunOptions: sweepOpts()}
	load := base
	load.Load = 1
	want := sweep(t, []Spec{base, load})
	if want[0] != want[1] {
		t.Errorf("load sweep at the paper's point measured %v, the paper's run %v", want[1], want[0])
	}
	if got := latencySweep(t, RUBiS, core.QueryCaching, simnet.WANOneWay)[0]; got != want[0] {
		t.Errorf("latency sweep at the paper's point measured %v, the paper's run %v", got, want[0])
	}
}

// TestSweepValidation: RunAll rejects a spec no run can start from before
// any run starts.
func TestSweepValidation(t *testing.T) {
	good := Spec{App: PetStore, RunOptions: sweepOpts()}
	for name, bad := range map[string]Spec{
		"negative load":       {App: PetStore, Load: -1},
		"negative edge count": {App: PetStore, Topology: simnet.HierarchySpec{Edges: -1}},
		"unknown app":         {App: "nope"},
	} {
		if _, err := RunAll([]Spec{good, bad}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestFormatSweep(t *testing.T) {
	r := &Result{Spec: Spec{App: PetStore, Load: 2}, SessionMeans: map[string]map[bool]time.Duration{
		petstore.PatternBrowser: {true: time.Millisecond, false: 2 * time.Millisecond},
	}}
	s := FormatSweep("offered-req-s", func(s Spec) float64 { return 30 * s.Load }, []*Result{r})
	if want := "60.0                      1            2            0            0\n"; !strings.HasSuffix(s, want) {
		t.Fatalf("sweep format:\n%s\nwant a row %q", s, want)
	}
}

func TestWriteCSV(t *testing.T) {
	ps, _ := tables(t)
	var buf strings.Builder
	if err := WriteCSV(&buf, ps); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + 5 configs x 14 Pet Store cells.
	if len(lines) != 1+5*14 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "app,config,pattern,page") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(buf.String(), "petstore,centralized,Browser,Main") {
		t.Fatal("missing expected row")
	}
}
