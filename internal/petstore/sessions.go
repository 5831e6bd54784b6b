package petstore

import (
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/workload"
)

// Usage pattern labels (Section 3.2).
const (
	PatternBrowser = "Browser"
	PatternBuyer   = "Buyer"
)

// BrowserSessionLength is the paper's browser session length (Table 2).
const BrowserSessionLength = 20

// browserWeightTotal is the Table 2 weight sum, computed once.
var browserWeightTotal = func() int {
	total := 0
	for _, bp := range BrowserPages {
		total += bp.Weight
	}
	return total
}()

// BrowserRefill is BrowserStream writing whole sessions into a buffer: the
// name the benchmark's session-generation probe times.
var BrowserRefill = workload.Refill(BrowserStream)

// Workload returns the client groups of Section 3.3 on the app's deployment
// (see core.Deployment.ClientGroups) with the population scaled by scale: 80%
// browsers / 20% buyers at an 8-second soft think time, i.e. 10 req/s per
// paper group and 30 req/s combined at scale 1 — the knob behind
// load-sensitivity sweeps.
func (a *App) Workload(scale float64) []workload.Group {
	g := clientGroup
	g.Request = a.RequestFunc()
	return a.d.ClientGroups(g, scale)
}

// clientGroup is what every client group of Workload shares, less the
// request function: the think time and each pattern's session generator.
// The deployment advisor's client mix (PlannerModel) is read from it.
var clientGroup = workload.Group{
	Delay:          8 * time.Second,
	BrowserPattern: PatternBrowser,
	WriterPattern:  PatternBuyer,
	BrowserGen:     BrowserStream,
	WriterGen:      BuyerStream,
}

// PaperWorkload and TopoWorkload are the names the benchmark calls for
// a.Workload(1), from when the star and the hierarchies had a builder each.
func PaperWorkload(a *App) []workload.Group { return a.Workload(1) }
func TopoWorkload(a *App) []workload.Group  { return a.Workload(1) }

// ComponentInventory reproduces Table 1: the EJBs of Java Pet Store with
// their kinds and descriptions, for documentation and inventory tests.
func ComponentInventory() []struct {
	Name string
	Kind container.BeanKind
	Desc string
} {
	return []struct {
		Name string
		Kind container.BeanKind
		Desc string
	}{
		{BeanCatalog, container.StatelessSession, "Handles read-only queries to product database"},
		{BeanCustomer, container.StatelessSession, "Serves as a façade to Order and Account"},
		{BeanCart, container.StatefulSession, "Maintains list of items to be bought by customer"},
		{BeanController, container.StatefulSession, "Manages model objects and processes events"},
		{BeanInventory, container.Entity, "Records availability information for each item"},
		{BeanSignOn, container.Entity, "Keeps userid/password information"},
		{BeanOrder, container.Entity, "Keeps order information"},
		{BeanAccount, container.Entity, "Keeps account information"},
	}
}
