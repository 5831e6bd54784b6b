package rubis

import (
	"math/rand"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/workload"
)

// Usage pattern labels.
const (
	PatternBrowser = "Browser"
	PatternBidder  = "Bidder"
)

// BrowserSessionLength is the paper's RUBiS browser session length.
const BrowserSessionLength = 40

// itemInCategory returns a random item id belonging to category c (items
// are seeded round-robin across categories).
func itemInCategory(rng *rand.Rand, c int64) int64 {
	k := rng.Intn(NumItems / NumCategories)
	return c + int64(k*NumCategories)
}

// browserWeightTotal is the Table 4 weight sum, computed once.
var browserWeightTotal = func() int {
	total := 0
	for _, bp := range BrowserPages {
		total += bp.Weight
	}
	return total
}()

// RequestFunc adapts the app to the workload driver.
func (a *App) RequestFunc() workload.RequestFunc {
	return func(p *sim.Proc, client workload.Client, step workload.Step) (time.Duration, error) {
		srv := a.d.ServerFor(client.Node, a.policy)
		_, rt, err := srv.Web().Get(p, client.Node, step.Page, step.Params, nil)
		return rt, err
	}
}

// Workload returns the Section 3.3 client groups on the app's deployment (see
// core.Deployment.ClientGroups) with the population scaled by scale: 80%
// browsers / 20% bidders at an 8-second think time, 30 req/s combined at
// scale 1 — the knob behind load-sensitivity sweeps.
func (a *App) Workload(scale float64) []workload.Group {
	return a.d.ClientGroups(workload.Group{
		Delay:          8 * time.Second,
		BrowserPattern: PatternBrowser,
		WriterPattern:  PatternBidder,
		BrowserGen:     BrowserStream,
		WriterGen:      BidderStream,
		Request:        a.RequestFunc(),
	}, scale)
}

// PaperWorkload is the name the benchmark calls for a.Workload(1).
func PaperWorkload(a *App) []workload.Group { return a.Workload(1) }
