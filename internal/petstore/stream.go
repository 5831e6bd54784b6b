package petstore

import (
	"math/rand"
	"strconv"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/workload"
)

// The session generators: the Table 2/3 session structure emitted one step at
// a time. Cross-step context (the browser's current category and
// last-requested product, the buyer's account and item) lives in the three
// StreamState registers, so under the streaming engine a session's footprint
// is its task struct — no step slice, no per-session RNG. Every parameter
// string comes from the precomputed ID tables, and the RNG draw sequence is
// pinned by the paper-table goldens.

// BrowserStream emits one browser-session step per call: 20 logically
// organized page requests starting at Main, drawn with the Table 2 weights;
// Item requests target an item of the previously requested Product, Product
// requests a product of the previously requested Category. Register layout:
// R[0] = current category, R[1]/R[2] = last requested product (cat, prod).
func BrowserStream(rng *rand.Rand, st *workload.StreamState, step *workload.Step) bool {
	if st.Pos >= BrowserSessionLength {
		return false
	}
	if st.Pos == 0 {
		st.R[0] = int64(rng.Intn(NumCategories))
		st.R[1] = st.R[0]
		st.R[2] = int64(rng.Intn(ProductsPerCategory))
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
	case PageCategory:
		st.R[0] = int64(rng.Intn(NumCategories))
		step.Set("cat", categoryIDs[st.R[0]])
	case PageProduct:
		st.R[1], st.R[2] = st.R[0], int64(rng.Intn(ProductsPerCategory))
		step.Set("product", productIDs[st.R[1]][st.R[2]])
	case PageItem:
		step.Set("item", itemIDs[st.R[1]][st.R[2]][rng.Intn(ItemsPerProduct)])
	case PageSearch:
		step.Set("q", searchQs[rng.Intn(ProductsPerCategory)])
	}
	return true
}

// BuyerStream emits the fixed Table 3 sequence for a random account buying
// one random item; register layout:
// R[0] = account, R[1] = item index (flattened).
func BuyerStream(rng *rand.Rand, st *workload.StreamState, step *workload.Step) bool {
	if int(st.Pos) >= len(BuyerPages) {
		return false
	}
	if st.Pos == 0 {
		st.R[0] = int64(rng.Intn(NumAccounts))
		st.R[1] = int64(rng.Intn(NumCategories)*ProductsPerCategory*ItemsPerProduct +
			rng.Intn(ProductsPerCategory)*ItemsPerProduct + rng.Intn(ItemsPerProduct))
	}
	page := BuyerPages[st.Pos]
	step.Page = page
	switch page {
	case PageVerifySignin:
		step.Set("user", userIDs[st.R[0]])
		step.Set("password", passwords[st.R[0]])
	case PageCart:
		i := st.R[1]
		step.Set("item", itemIDs[i/(ProductsPerCategory*ItemsPerProduct)][(i/ItemsPerProduct)%ProductsPerCategory][i%ItemsPerProduct])
	}
	return true
}

// streamPageCost is the analytic response-time model behind the scale
// workload: per-page base service times loosely following the app's measured
// local means, plus one WAN round trip for remote classes. The model is what
// lets a million sessions run without a million container processes; its
// absolute numbers only need to be stable, not calibrated.
func streamPageCost(page string) time.Duration {
	switch page {
	case PageMain, PageSignin, PageSignout:
		return 12 * time.Millisecond
	case PageCategory, PageProduct, PageSearch:
		return 28 * time.Millisecond
	case PageItem:
		return 22 * time.Millisecond
	case PageVerifySignin, PageCommit:
		return 45 * time.Millisecond
	default: // Cart, Checkout, PlaceOrder, Billing
		return 30 * time.Millisecond
	}
}

const streamWANRoundTrip = 80 * time.Millisecond

// StreamRequestModel returns the synthetic request model for a class: base
// page cost, a WAN round trip when remote, and ±25% load jitter drawn from
// the lane RNG.
func StreamRequestModel(local bool) workload.StreamRequest {
	return func(env *sim.Env, c *workload.StreamClass, st *workload.StreamState, step *workload.Step) (time.Duration, error) {
		rt := streamPageCost(step.Page)
		jitter := time.Duration(env.Rand().Int63n(int64(rt/2))) - rt/4
		rt += jitter
		if !local {
			rt += streamWANRoundTrip
		}
		return rt, nil
	}
}

// StreamTraceWAN is the critical-path hint matching StreamRequestModel: a
// remote class's pages spend one WAN round trip of their response time on
// the wide area; local pages spend none. nil for local classes keeps the
// tracing-on hot path free of a useless indirect call.
func StreamTraceWAN(local bool) func(page string, rt time.Duration) time.Duration {
	if local {
		return nil
	}
	return func(page string, rt time.Duration) time.Duration {
		return streamWANRoundTrip
	}
}

// StreamWorkload builds the scale workload: totalClients spread across eight
// edge nodes (the first co-located with the application main site), each
// node carrying the paper's 80/20 browser/buyer mix with the 8-second soft
// think time. It is the configuration behind the benchmark's scale-stream
// workload and the `wadeploy scale` subcommand.
func StreamWorkload(totalClients int) []workload.StreamClass {
	const edges = 8
	classes := make([]workload.StreamClass, 0, 2*edges)
	for e := 0; e < edges; e++ {
		node := "edge-" + strconv.Itoa(e+1)
		local := e == 0
		clients := totalClients / edges
		if e < totalClients%edges {
			clients++
		}
		browsers := clients * 4 / 5
		writers := clients - browsers
		classes = append(classes,
			workload.StreamClass{
				Name:     node + "/browser",
				Node:     node,
				Local:    local,
				Pattern:  PatternBrowser,
				Clients:  browsers,
				Delay:    8 * time.Second,
				Gen:      BrowserStream,
				Request:  StreamRequestModel(local),
				TraceWAN: StreamTraceWAN(local),
			},
			workload.StreamClass{
				Name:     node + "/buyer",
				Node:     node,
				Local:    local,
				Pattern:  PatternBuyer,
				Clients:  writers,
				Delay:    8 * time.Second,
				Gen:      BuyerStream,
				Request:  StreamRequestModel(local),
				TraceWAN: StreamTraceWAN(local),
			})
	}
	return classes
}
