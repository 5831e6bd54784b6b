package rubis

import (
	"wadeploy/internal/planner"
	"wadeploy/internal/workload"
)

// replicaPushBytes is the replica-refresh payload the wiring configures;
// the planner charges the same size per blocking push.
const replicaPushBytes = 1024

// visitSamples is the number of generated sessions used to estimate page
// weights for the stochastic browser pattern.
const visitSamples = 8192

// PlannerModel describes RUBiS to the deployment advisor: the component list
// Deploy installs from (the linear servlet → session-façade → entity
// architecture of Section 3.4), each page's
// query shapes from the seeded dataset sizes, and the paper's 80/20
// two-remote-group client mix.
func PlannerModel() *planner.Model {
	costs := DefaultPageCosts()

	itemsPerCategory := NumItems / NumCategories
	itemsPerRegion := NumItems / NumRegions

	// Query shapes over the seeded dataset (schema.go): all finders are
	// indexed; joins probe their inner table per outer row.
	qAllCats := planner.SQL{Scan: NumCategories, Out: NumCategories}
	qAllRegs := planner.SQL{Scan: NumRegions, Out: NumRegions}
	qRegionCats := planner.SQL{Scan: NumCategories + itemsPerRegion, Out: NumCategories / 2}
	qByCategory := planner.SQL{Scan: itemsPerCategory, Out: itemsPerCategory}
	qByCatRegion := planner.SQL{Scan: itemsPerCategory, Out: 1}
	qBids := planner.SQL{Scan: 2 * SeedBidsPerItem, Out: SeedBidsPerItem}
	qComments := planner.SQL{Scan: 2, Out: 1}
	qAuth := planner.SQL{Scan: 1, Out: 1}

	// cachedRead is a façade deployed with the query caches: a cache hit
	// on the edges, its SQL on main.
	cachedRead := func(direct planner.Op) planner.Op {
		return planner.If{Cond: planner.AtEdge, Then: planner.Hit{}, Else: direct}
	}
	// viewRead is a façade deployed with the entity replicas but cached
	// only at QueryCaching: cache hit when the edge has query caches, a
	// WAN delegate from an edge without them, its body on main.
	viewRead := func(direct planner.Op) planner.Op {
		return planner.If{
			Cond: planner.EdgeCached,
			Then: planner.Hit{},
			Else: planner.If{
				Cond: planner.AtEdge,
				Then: planner.Call{Body: direct},
				Else: direct,
			},
		}
	}

	storeBid := planner.Seq{
		qAuth,            // authenticate
		planner.Load{},   // Item
		planner.Insert{}, // Bid (not replicated: no propagation)
		planner.Update{Push: planner.HasAnyCache}, // Item bid summary
	}
	storeComment := planner.Seq{
		qAuth,
		planner.Load{},   // target User
		planner.Insert{}, // Comment
		planner.Update{Push: planner.HasAnyCache}, // User rating
	}

	page := func(name string, bytes int, body planner.Op) planner.Page {
		c := costs[name]
		return planner.Page{
			Name: name, RenderCPU: c.CPU, RenderLat: c.Lat, Bytes: bytes, Body: body,
		}
	}

	return &planner.Model{
		Layout:    layout,
		Options:   DeployOptions(),
		PushBytes: replicaPushBytes,
		Patterns: []planner.Pattern{
			{Name: PatternBrowser, Visits: workload.ExpectedVisits(BrowserStream, visitSamples, 1)},
			{Name: PatternBidder, Visits: workload.ExpectedVisits(BidderStream, 1, 1)},
		},
		Classes: []planner.Class{
			{Pattern: PatternBrowser, Local: true, Clients: 64},
			{Pattern: PatternBrowser, Local: false, Clients: 128},
			{Pattern: PatternBidder, Local: true, Clients: 16},
			{Pattern: PatternBidder, Local: false, Clients: 32},
		},
		Pages: []planner.Page{
			page(PageMain, 2*1024, nil),
			page(PageBrowse, 2*1024, nil),
			page(PageAllCategories, 4*1024, planner.Call{Bean: SBBrowseCategories, Body: cachedRead(qAllCats)}),
			page(PageAllRegions, 4*1024, planner.Call{Bean: SBBrowseRegions, Body: cachedRead(qAllRegs)}),
			page(PageRegion, 4*1024, planner.Call{Bean: SBBrowseCategories, Body: cachedRead(qRegionCats)}),
			page(PageCategory, 8*1024, planner.Call{Bean: SBSearchByCategory, Body: cachedRead(qByCategory)}),
			page(PageCatRegion, 6*1024, planner.Call{Bean: SBSearchByRegion, Body: cachedRead(qByCatRegion)}),
			page(PageItem, 4*1024, planner.Call{Bean: SBViewItem, Body: planner.If{
				Cond: planner.AtEdge, Then: planner.Hit{}, Else: planner.Load{},
			}}),
			page(PageBids, 6*1024, planner.Call{Bean: SBViewBidHistory, Body: viewRead(qBids)}),
			page(PageUserInfo, 6*1024, planner.Call{Bean: SBViewUserInfo, Body: viewRead(planner.Seq{planner.Load{}, qComments})}),
			page(PagePutBidAuth, 2*1024, nil),
			page(PagePutBidForm, 4*1024, planner.Call{Bean: SBPutBid, Body: planner.If{
				Cond: planner.AtEdge,
				Then: planner.Seq{planner.Hit{}, planner.Hit{}}, // cached auth + Item replica
				Else: planner.Seq{qAuth, planner.Load{}},
			}}),
			page(PageStoreBid, 3*1024, planner.Call{Bean: SBStoreBid, Body: storeBid}),
			page(PagePutCommentAuth, 2*1024, nil),
			page(PagePutCommentForm, 4*1024, planner.Call{Bean: SBPutComment, Body: planner.If{
				Cond: planner.AtEdge,
				Then: planner.Seq{planner.Hit{}, planner.Hit{}}, // cached auth + User replica
				Else: planner.Seq{qAuth, planner.Load{}},
			}}),
			page(PageStoreComment, 3*1024, planner.Call{Bean: SBStoreComment, Body: storeComment}),
		},
	}
}
