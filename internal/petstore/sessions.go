package petstore

import (
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/simnet"
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

// BrowserRefill and BuyerRefill are the sessions of stream.go in the pooled
// form workload.Run drives.
var (
	BrowserRefill = workload.Refill(BrowserStream)
	BuyerRefill   = workload.Refill(BuyerStream)
)

// Workload returns the client groups of Section 3.3 on the app's deployment
// (see core.Deployment.ClientGroups) with the population scaled by scale: 80%
// browsers / 20% buyers at an 8-second soft think time, i.e. 10 req/s per
// paper group and 30 req/s combined at scale 1 — the knob behind
// load-sensitivity sweeps.
func (a *App) Workload(scale float64) []workload.Group {
	return a.d.ClientGroups(workload.Group{
		Delay:          8 * time.Second,
		BrowserPattern: PatternBrowser,
		WriterPattern:  PatternBuyer,
		BrowserRefill:  BrowserRefill,
		WriterRefill:   BuyerRefill,
		Request:        a.RequestFunc(),
	}, scale)
}

// PaperWorkload and TopoWorkload are the names the benchmark calls for
// a.Workload(1), from when the star and the hierarchies had a builder each.
func PaperWorkload(a *App) []workload.Group { return a.Workload(1) }
func TopoWorkload(a *App) []workload.Group  { return a.Workload(1) }

// Plan returns the validated placement plan for the active configuration —
// the Table 1 component inventory plus the configuration's additions,
// expressed against the paper's design rules.
func (a *App) Plan() *core.Plan {
	main := []string{simnet.NodeMain}
	active := make([]string, 0, 3)
	for _, s := range a.activeServers() {
		active = append(active, s.Name())
	}
	catalogServers := main
	if a.cfg.AtLeast(core.StatefulCaching) {
		catalogServers = active
	}
	pl := &core.Plan{App: "petstore"}
	add := func(d container.Descriptor, servers []string) {
		pl.Placements = append(pl.Placements, core.Placement{Desc: d, Servers: servers})
	}
	add(container.Descriptor{Name: BeanCatalog, Kind: container.StatelessSession, Facade: true}, catalogServers)
	add(container.Descriptor{Name: BeanCustomer, Kind: container.StatelessSession, Facade: true}, main)
	add(container.Descriptor{Name: BeanCart, Kind: container.StatefulSession, Facade: true}, active)
	add(container.Descriptor{Name: BeanController, Kind: container.StatefulSession, Facade: true}, active)
	entity := func(name, table, pk string) {
		add(container.Descriptor{
			Name: name, Kind: container.Entity, Table: table, PKColumn: pk,
			Persistence: container.BMP, LocalOnly: true,
		}, main)
	}
	entity(BeanCategory, "category", "catid")
	entity(BeanProduct, "product", "productid")
	entity(BeanItem, "item", "itemid")
	entity(BeanInventory, "inventory", "itemid")
	entity(BeanSignOn, "signon", "username")
	entity(BeanAccount, "account", "userid")
	entity(BeanOrder, "orders", "orderid")
	entity(BeanOrderStatus, "orderstatus", "orderid")
	entity(BeanLineItem, "lineitem", "lineid")
	if a.cfg.AtLeast(core.StatefulCaching) {
		edges := make([]string, 0, len(a.d.Edges))
		for _, e := range a.d.Edges {
			edges = append(edges, e.Name())
		}
		for _, ro := range []string{BeanCategory, BeanProduct, BeanItem, BeanInventory} {
			add(container.Descriptor{
				Name: ro + "RO", Kind: container.Entity, LocalOnly: true,
			}, edges)
		}
		add(container.Descriptor{Name: "Updater", Kind: container.StatelessSession, Facade: true}, edges)
		if a.cfg.AtLeast(core.AsyncUpdates) {
			add(container.Descriptor{Name: "UpdateSubscriber", Kind: container.MessageDriven, Facade: true}, edges)
		}
	}
	return pl
}

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
