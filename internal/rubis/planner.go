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
// architecture of Section 3.4), each page's façade call with its main-side
// query shapes from the seeded dataset sizes, and the paper's 80/20
// two-remote-group client mix. What a call costs from an edge is read from
// the façades the component list declares.
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

	// The stores run on main: the Bid and Comment inserts have no replicas
	// to push to, the Item and User updates do.
	storeBid := planner.Seq{
		qAuth,          // authenticate
		planner.Load{}, // Item
		planner.Insert{Bean: BeanBid},
		planner.Update{Bean: BeanItem}, // bid summary
	}
	storeComment := planner.Seq{
		qAuth,
		planner.Load{}, // target User
		planner.Insert{Bean: BeanComment},
		planner.Update{Bean: BeanUser}, // rating
	}
	form := planner.Seq{qAuth, planner.Load{}} // auth + the Item or User

	page := func(name string, body planner.Op) planner.Page {
		c := costs[name]
		return planner.Page{
			Name: name, RenderCPU: c.CPU, RenderLat: c.Lat, Bytes: c.Page.Bytes, Body: body,
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
			page(PageMain, nil),
			page(PageBrowse, nil),
			page(PageAllCategories, planner.Call{Bean: SBBrowseCategories, Method: "getAll", Body: qAllCats}),
			page(PageAllRegions, planner.Call{Bean: SBBrowseRegions, Method: "getAll", Body: qAllRegs}),
			page(PageRegion, planner.Call{Bean: SBBrowseCategories, Method: "forRegion", Body: qRegionCats}),
			page(PageCategory, planner.Call{Bean: SBSearchByCategory, Method: "get", Body: qByCategory}),
			page(PageCatRegion, planner.Call{Bean: SBSearchByRegion, Method: "get", Body: qByCatRegion}),
			page(PageItem, planner.Call{Bean: SBViewItem, Method: "get", Body: planner.Load{}}),
			page(PageBids, planner.Call{Bean: SBViewBidHistory, Method: "get", Body: qBids}),
			page(PageUserInfo, planner.Call{Bean: SBViewUserInfo, Method: "get", Body: planner.Seq{planner.Load{}, qComments}}),
			page(PagePutBidAuth, nil),
			page(PagePutBidForm, planner.Call{Bean: SBPutBid, Method: "form", Body: form}),
			page(PageStoreBid, planner.Call{Bean: SBStoreBid, Method: "store", Body: storeBid}),
			page(PagePutCommentAuth, nil),
			page(PagePutCommentForm, planner.Call{Bean: SBPutComment, Method: "form", Body: form}),
			page(PageStoreComment, planner.Call{Bean: SBStoreComment, Method: "store", Body: storeComment}),
		},
	}
}
