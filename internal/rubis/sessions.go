package rubis

import (
	"math/rand"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
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

// BrowserRefill generates one 40-request browser session with the Table 4
// page weights, starting at Main; Bids requests target the previously viewed
// item, and Item requests follow the last listing's category. The session is
// written into the caller's reused buffer with interned parameter strings;
// the RNG draw sequence is pinned by the paper-table goldens.
func BrowserRefill(rng *rand.Rand, steps []workload.Step) []workload.Step {
	steps = workload.GrowStep(steps, PageMain)
	cat := int64(rng.Intn(NumCategories) + 1)
	region := int64(rng.Intn(NumRegions) + 1)
	lastItem := itemInCategory(rng, cat)
	for n := 1; n < BrowserSessionLength; n++ {
		r := rng.Intn(browserWeightTotal)
		page := PageMain
		for _, bp := range BrowserPages {
			if r < bp.Weight {
				page = bp.Page
				break
			}
			r -= bp.Weight
		}
		steps = workload.GrowStep(steps, page)
		s := &steps[len(steps)-1]
		switch page {
		case PageRegion:
			region = int64(rng.Intn(NumRegions) + 1)
			s.Set("region", intStr(region))
		case PageCategory:
			cat = int64(rng.Intn(NumCategories) + 1)
			s.Set("cat", intStr(cat))
		case PageCatRegion:
			cat = int64(rng.Intn(NumCategories) + 1)
			s.Set("cat", intStr(cat))
			s.Set("region", intStr(region))
		case PageItem:
			lastItem = itemInCategory(rng, cat)
			s.Set("item", intStr(lastItem))
		case PageBids:
			s.Set("item", intStr(lastItem))
		case PageUserInfo:
			s.Set("user", intStr(int64(rng.Intn(NumUsers)+1)))
		}
	}
	return steps
}

// BidderRefill generates one bidder session (Table 5): the bidder bids on an
// item and leaves a comment for its seller, authenticating before each write
// activity (RUBiS keeps no login session).
func BidderRefill(rng *rand.Rand, steps []workload.Step) []workload.Step {
	u := rng.Intn(NumUsers)
	nick, pass := nicknames[u], userPws[u]
	item := int64(rng.Intn(NumItems) + 1)
	seller := (item-1)%NumUsers + 1
	bid := rng.Intn(500)
	itemS, sellerS := intStr(item), intStr(seller)
	setAuth := func(s *workload.Step) {
		s.Set("nick", nick)
		s.Set("password", pass)
	}
	for _, page := range BidderPages {
		steps = workload.GrowStep(steps, page)
		s := &steps[len(steps)-1]
		switch page {
		case PagePutBidForm:
			setAuth(s)
			s.Set("item", itemS)
		case PageStoreBid:
			setAuth(s)
			s.Set("item", itemS)
			s.Set("bid", bidStrs[bid])
		case PagePutCommentForm:
			setAuth(s)
			s.Set("to", sellerS)
		case PageStoreComment:
			setAuth(s)
			s.Set("to", sellerS)
			s.Set("item", itemS)
			s.Set("rating", ratings[rng.Intn(5)])
		}
	}
	return steps
}

// RequestFunc adapts the app to the workload driver.
func (a *App) RequestFunc() workload.RequestFunc {
	return func(p *sim.Proc, client workload.Client, step workload.Step) (time.Duration, error) {
		srv := a.d.ServerFor(client.Node, a.cfg)
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
		BrowserRefill:  BrowserRefill,
		WriterRefill:   BidderRefill,
		Request:        a.RequestFunc(),
	}, scale)
}

// PaperWorkload is the name the benchmark calls for a.Workload(1).
func PaperWorkload(a *App) []workload.Group { return a.Workload(1) }

// Plan returns the validated placement plan for the active configuration.
func (a *App) Plan() *core.Plan {
	main := []string{simnet.NodeMain}
	active := make([]string, 0, 3)
	for _, s := range a.activeServers() {
		active = append(active, s.Name())
	}
	edges := make([]string, 0, len(a.d.Edges))
	for _, e := range a.d.Edges {
		edges = append(edges, e.Name())
	}
	pl := &core.Plan{App: "rubis"}
	add := func(d container.Descriptor, servers []string) {
		pl.Placements = append(pl.Placements, core.Placement{Desc: d, Servers: servers})
	}
	facade := func(name string, servers []string) {
		add(container.Descriptor{Name: name, Kind: container.StatelessSession, Facade: true}, servers)
	}
	viewServers := main
	if a.cfg.AtLeast(core.StatefulCaching) {
		viewServers = active
	}
	cachedServers := main
	if a.cfg.AtLeast(core.QueryCaching) {
		cachedServers = active
	}
	facade(SBBrowseCategories, cachedServers)
	facade(SBBrowseRegions, cachedServers)
	facade(SBSearchByCategory, cachedServers)
	facade(SBSearchByRegion, cachedServers)
	facade(SBViewItem, viewServers)
	facade(SBViewBidHistory, viewServers)
	facade(SBViewUserInfo, viewServers)
	facade(SBPutBid, cachedServers)
	facade(SBPutComment, cachedServers)
	facade(SBStoreBid, main)
	facade(SBStoreComment, main)
	entity := func(name, table string) {
		add(container.Descriptor{
			Name: name, Kind: container.Entity, Table: table, PKColumn: "id",
			Persistence: container.CMP, LocalOnly: true,
		}, main)
	}
	entity(BeanItem, "items")
	entity(BeanUser, "users")
	entity(BeanBid, "bids")
	entity(BeanComment, "comments")
	entity(BeanCategory, "categories")
	entity(BeanRegion, "regions")
	if a.cfg.AtLeast(core.StatefulCaching) {
		for _, ro := range []string{BeanItem, BeanUser} {
			add(container.Descriptor{Name: ro + "RO", Kind: container.Entity, LocalOnly: true}, edges)
		}
		facade("Updater", edges)
		if a.cfg.AtLeast(core.AsyncUpdates) {
			add(container.Descriptor{Name: "UpdateSubscriber", Kind: container.MessageDriven, Facade: true}, edges)
		}
	}
	return pl
}
