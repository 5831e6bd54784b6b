package experiment

import (
	"strings"
	"testing"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/simnet"
)

func sweepOpts() RunOptions {
	return RunOptions{Seed: 1, Warmup: 10 * time.Second, Duration: 90 * time.Second}
}

func TestLatencySweepCentralizedScalesWithWAN(t *testing.T) {
	lats := []time.Duration{25 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond}
	pts, err := LatencySweep(PetStore, core.Centralized, lats, sweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Remote browser pays ~4x the one-way latency (2 round trips) per page:
	// strictly increasing, roughly linear.
	for i := 1; i < len(pts); i++ {
		if pts[i].RemoteBrowser <= pts[i-1].RemoteBrowser {
			t.Fatalf("remote browser not increasing: %v", pts)
		}
	}
	// Local browser is latency-insensitive.
	spread := pts[2].LocalBrowser - pts[0].LocalBrowser
	if spread < 0 {
		spread = -spread
	}
	if spread > 20*time.Millisecond {
		t.Fatalf("local browser varied %v across WAN latencies", spread)
	}
	// The 250ms point should cost roughly 2x the WAN delta of the 100ms
	// point for remote clients (4 one-way crossings per page).
	d100 := pts[1].RemoteBrowser - pts[1].LocalBrowser
	d250 := pts[2].RemoteBrowser - pts[2].LocalBrowser
	ratio := float64(d250) / float64(d100)
	if ratio < 2.2 || ratio > 2.8 {
		t.Fatalf("delta ratio = %v, want ~2.5 (linear in latency)", ratio)
	}
}

func TestLatencySweepFinalConfigInsulatesBrowsers(t *testing.T) {
	lats := []time.Duration{50 * time.Millisecond, 300 * time.Millisecond}
	pts, err := LatencySweep(RUBiS, core.AsyncUpdates, lats, sweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Remote browsers stay near-local even when the WAN gets 6x slower.
	for _, pt := range pts {
		if pt.RemoteBrowser > pt.LocalBrowser+40*time.Millisecond {
			t.Fatalf("remote browser %v not insulated at %.0fms WAN", pt.RemoteBrowser, pt.X)
		}
	}
	// Writers still cross the WAN once, so they do feel the latency.
	if pts[1].RemoteWriter <= pts[0].RemoteWriter {
		t.Fatalf("remote writer insensitive to WAN latency: %v", pts)
	}
}

func TestLoadSweepQueueingGrowsWithLoad(t *testing.T) {
	pts, err := LoadSweep(PetStore, core.Centralized, []float64{0.5, 1, 3}, sweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].X != 15 || pts[1].X != 30 || pts[2].X != 90 {
		t.Fatalf("x values = %v", pts)
	}
	// Response times are monotone nondecreasing in load (CPU queueing),
	// and 3x load on a single server must cost measurably more.
	if pts[2].LocalBrowser <= pts[0].LocalBrowser {
		t.Fatalf("no queueing effect: %v", pts)
	}
}

// TestSweepsRunTheOneBody: a sweep point at the paper's operating value is
// the paper run — the 100 ms latency point and the scale-1 load point go
// through the same body as Run and measure the same session means.
func TestSweepsRunTheOneBody(t *testing.T) {
	base, err := Run(RUBiS, core.QueryCaching, sweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	lat, err := LatencySweep(RUBiS, core.QueryCaching, []time.Duration{simnet.WANOneWay}, sweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	load, err := LoadSweep(RUBiS, core.QueryCaching, []float64{1}, sweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := point(base, 0)
	for name, got := range map[string]SweepPoint{"latency": lat[0], "load": load[0]} {
		got.X = 0
		if got != want {
			t.Errorf("%s sweep at the paper's point measured %+v, Run measured %+v", name, got, want)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := LatencySweep(PetStore, core.Centralized, []time.Duration{0}, sweepOpts()); err == nil {
		t.Fatal("zero latency accepted")
	}
	if _, err := LoadSweep(PetStore, core.Centralized, []float64{-1}, sweepOpts()); err == nil {
		t.Fatal("negative scale accepted")
	}
	if _, err := LoadSweep("nope", core.Centralized, []float64{1}, sweepOpts()); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestFormatSweep(t *testing.T) {
	pts := []SweepPoint{{X: 100, LocalBrowser: time.Millisecond, RemoteBrowser: 2 * time.Millisecond}}
	s := FormatSweep("wan-ms", pts)
	if len(s) == 0 {
		t.Fatal("empty sweep format")
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
	var fig strings.Builder
	if err := WriteFigureCSV(&fig, ps); err != nil {
		t.Fatal(err)
	}
	// Header + 2 localities x 2 patterns x 5 configs.
	figLines := strings.Split(strings.TrimSpace(fig.String()), "\n")
	if len(figLines) != 1+20 {
		t.Fatalf("figure csv lines = %d", len(figLines))
	}
}
