package rubis

import (
	"wadeploy/internal/planner"
)

// PlannerModel describes RUBiS to the deployment advisor: the component list
// Deploy installs from (the linear servlet → session-façade → entity
// architecture of Section 3.4), each page's façade call with its main-side
// query shapes from the seeded dataset sizes, the render costs the web tier
// charges, and the client mix Workload runs. What a call costs from an edge
// is read from the façades the component list declares.
func PlannerModel() *planner.Model {
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

	patterns, classes := planner.ClientMix(clientGroup)
	return &planner.Model{
		Layout:    layout,
		Options:   DeployOptions(),
		Patterns:  patterns,
		Classes:   classes,
		PageCosts: DefaultPageCosts(),
		Pages: []planner.Page{
			{Name: PageMain},
			{Name: PageBrowse},
			{Name: PageAllCategories, Body: planner.Call{Bean: SBBrowseCategories, Method: "getAll", Body: qAllCats}},
			{Name: PageAllRegions, Body: planner.Call{Bean: SBBrowseRegions, Method: "getAll", Body: qAllRegs}},
			{Name: PageRegion, Body: planner.Call{Bean: SBBrowseCategories, Method: "forRegion", Body: qRegionCats}},
			{Name: PageCategory, Body: planner.Call{Bean: SBSearchByCategory, Method: "get", Body: qByCategory}},
			{Name: PageCatRegion, Body: planner.Call{Bean: SBSearchByRegion, Method: "get", Body: qByCatRegion}},
			{Name: PageItem, Body: planner.Call{Bean: SBViewItem, Method: "get", Body: planner.Load{}}},
			{Name: PageBids, Body: planner.Call{Bean: SBViewBidHistory, Method: "get", Body: qBids}},
			{Name: PageUserInfo, Body: planner.Call{Bean: SBViewUserInfo, Method: "get", Body: planner.Seq{planner.Load{}, qComments}}},
			{Name: PagePutBidAuth},
			{Name: PagePutBidForm, Body: planner.Call{Bean: SBPutBid, Method: "form", Body: form}},
			{Name: PageStoreBid, Body: planner.Call{Bean: SBStoreBid, Method: "store", Body: storeBid}},
			{Name: PagePutCommentAuth},
			{Name: PagePutCommentForm, Body: planner.Call{Bean: SBPutComment, Method: "form", Body: form}},
			{Name: PageStoreComment, Body: planner.Call{Bean: SBStoreComment, Method: "store", Body: storeComment}},
		},
	}
}
