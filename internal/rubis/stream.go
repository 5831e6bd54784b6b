package rubis

import (
	"math/rand"

	"wadeploy/internal/workload"
)

// The session generators (see petstore/stream.go for the model): the Table
// 4/5 session structure emitted one step at a time with cross-step context in
// the StreamState registers and interned parameter strings; the RNG draw
// sequence is pinned by the paper-table goldens.

// BrowserStream emits one browser-session step per call: 40 requests with the
// Table 4 page weights, starting at Main; Bids requests target the previously
// viewed item, and Item requests follow the last listing's category. Register
// layout:
// R[0] = current category, R[1] = current region, R[2] = last viewed item.
func BrowserStream(rng *rand.Rand, st *workload.StreamState, step *workload.Step) bool {
	if st.Pos >= BrowserSessionLength {
		return false
	}
	if st.Pos == 0 {
		st.R[0] = int64(rng.Intn(NumCategories) + 1)
		st.R[1] = int64(rng.Intn(NumRegions) + 1)
		st.R[2] = itemInCategory(rng, st.R[0])
		step.Page = PageMain
		return true
	}
	r := rng.Intn(browserWeightTotal)
	page := PageMain
	for _, bp := range BrowserPages {
		if r < bp.Weight {
			page = bp.Page
			break
		}
		r -= bp.Weight
	}
	step.Page = page
	switch page {
	case PageRegion:
		st.R[1] = int64(rng.Intn(NumRegions) + 1)
		step.Set("region", intStr(st.R[1]))
	case PageCategory:
		st.R[0] = int64(rng.Intn(NumCategories) + 1)
		step.Set("cat", intStr(st.R[0]))
	case PageCatRegion:
		st.R[0] = int64(rng.Intn(NumCategories) + 1)
		step.Set("cat", intStr(st.R[0]))
		step.Set("region", intStr(st.R[1]))
	case PageItem:
		st.R[2] = itemInCategory(rng, st.R[0])
		step.Set("item", intStr(st.R[2]))
	case PageBids:
		step.Set("item", intStr(st.R[2]))
	case PageUserInfo:
		step.Set("user", intStr(int64(rng.Intn(NumUsers)+1)))
	}
	return true
}

// BidderStream emits the fixed Table 5 bidder sequence: the bidder bids on an
// item and leaves a comment for its seller, authenticating before each write
// activity (RUBiS keeps no login session). Register layout:
// R[0] = user, R[1] = item, R[2] = bid table index.
func BidderStream(rng *rand.Rand, st *workload.StreamState, step *workload.Step) bool {
	if int(st.Pos) >= len(BidderPages) {
		return false
	}
	if st.Pos == 0 {
		st.R[0] = int64(rng.Intn(NumUsers))
		st.R[1] = int64(rng.Intn(NumItems) + 1)
		st.R[2] = int64(rng.Intn(500))
	}
	u := int(st.R[0])
	item := st.R[1]
	seller := (item-1)%NumUsers + 1
	page := BidderPages[st.Pos]
	step.Page = page
	setAuth := func() {
		step.Set("nick", nicknames[u])
		step.Set("password", userPws[u])
	}
	switch page {
	case PagePutBidForm:
		setAuth()
		step.Set("item", intStr(item))
	case PageStoreBid:
		setAuth()
		step.Set("item", intStr(item))
		step.Set("bid", bidStrs[st.R[2]])
	case PagePutCommentForm:
		setAuth()
		step.Set("to", intStr(seller))
	case PageStoreComment:
		setAuth()
		step.Set("to", intStr(seller))
		step.Set("item", intStr(item))
		step.Set("rating", ratings[rng.Intn(5)])
	}
	return true
}
