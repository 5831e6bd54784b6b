package petstore

import (
	"wadeploy/internal/core"
	"wadeploy/internal/planner"
	"wadeploy/internal/workload"
)

// replicaPushBytes is the replica-refresh payload the wiring configures;
// the planner charges the same size per blocking push.
const replicaPushBytes = 1024

// visitSamples is the number of generated sessions used to estimate page
// weights; the browser pattern is stochastic, so the planner averages the
// same generator the workload driver runs.
const visitSamples = 8192

// PlannerModel describes Pet Store to the deployment advisor: the component
// list Deploy installs from, the page cost profiles behind
// Tables 2–3 (each page's stub calls, SQL shapes, rendering cost and
// response size), and the paper's 80/20 two-remote-group client mix.
func PlannerModel() *planner.Model {
	costs := DefaultPageCosts()

	// Catalog SQL shapes (schema.go sizing: 10 categories × 10 products ×
	// 5 items; all finders are primary-key or indexed lookups except the
	// LIKE search, which scans the product table).
	productsOf := planner.Seq{
		planner.SQL{Scan: 1, Out: 1},
		planner.SQL{Scan: ProductsPerCategory, Out: ProductsPerCategory},
	}
	itemsOf := planner.Seq{
		planner.SQL{Scan: 1, Out: 1},
		planner.SQL{Scan: ItemsPerProduct, Out: ItemsPerProduct},
	}
	searchSQL := planner.SQL{Scan: NumProducts, Out: NumCategories}
	loads := planner.Seq{planner.Load{}, planner.Load{}} // Item + Inventory

	// cachedOrDelegate is an edge Catalog finder: served from the query
	// cache when one exists, otherwise delegated over the WAN to the main
	// Catalog; on the main server it runs its SQL directly.
	cachedOrDelegate := func(direct planner.Op) planner.Op {
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

	// getItem inside the Catalog: read-only beans when the edge has them,
	// a WAN delegate from an edge Catalog without them, entity loads on
	// main.
	getItemBody := planner.If{
		Cond: planner.EdgeHit,
		Then: planner.Seq{planner.Hit{}, planner.Hit{}},
		Else: planner.If{
			Cond: planner.AtEdge,
			Then: planner.Call{Body: loads},
			Else: loads,
		},
	}

	// getItemVia from the web tier (Item page, Cart.addItem): straight to
	// the read-only beans above StatefulCaching, through the Catalog path
	// otherwise.
	getItemVia := planner.If{
		Cond: planner.EdgeHit,
		Then: planner.Seq{planner.Hit{}, planner.Hit{}},
		Else: planner.Call{Bean: BeanCatalog, Body: getItemBody},
	}

	// placeOrder (Customer): Order/OrderStatus/LineItem creation plus the
	// Inventory write whose propagation is the crux of Sections 4.3–4.5.
	placeOrder := planner.Seq{
		planner.Load{}, // Item
		planner.Load{}, // Account
		planner.Insert{}, planner.Insert{}, planner.Insert{},
		planner.Load{}, // Inventory
		planner.Update{Push: planner.HasEntityReplicas},
	}

	page := func(name string, body planner.Op) planner.Page {
		c := costs[name]
		return planner.Page{
			Name: name, RenderCPU: c.CPU, RenderLat: c.Lat, Bytes: c.Page.Bytes, Body: body,
		}
	}

	return &planner.Model{
		Layout:    layout,
		Options:   core.DefaultOptions(),
		PushBytes: replicaPushBytes,
		Patterns: []planner.Pattern{
			{Name: PatternBrowser, Visits: workload.ExpectedVisits(BrowserStream, visitSamples, 1)},
			{Name: PatternBuyer, Visits: workload.ExpectedVisits(BuyerStream, 1, 1)},
		},
		Classes: []planner.Class{
			{Pattern: PatternBrowser, Local: true, Clients: 64},
			{Pattern: PatternBrowser, Local: false, Clients: 128},
			{Pattern: PatternBuyer, Local: true, Clients: 16},
			{Pattern: PatternBuyer, Local: false, Clients: 32},
		},
		Pages: []planner.Page{
			page(PageMain, nil),
			page(PageCategory, planner.Call{Bean: BeanCatalog, Body: cachedOrDelegate(productsOf)}),
			page(PageProduct, planner.Call{Bean: BeanCatalog, Body: cachedOrDelegate(itemsOf)}),
			page(PageItem, getItemVia),
			page(PageSearch, planner.Call{Bean: BeanCatalog, Body: planner.If{
				Cond: planner.AtEdge,
				Then: planner.Call{Body: searchSQL},
				Else: searchSQL,
			}}),
			page(PageSignin, nil),
			page(PageVerifySignin, planner.Seq{
				planner.Call{Bean: BeanCustomer, Body: planner.Load{}}, // createCustomer: SignOn
				planner.Call{Bean: BeanCustomer, Body: planner.Load{}}, // getProfile: Account
			}),
			page(PageCart, planner.Seq{
				planner.Call{Bean: BeanController},
				planner.Call{Bean: BeanCart, Body: getItemVia},
			}),
			page(PageCheckout, planner.Seq{
				planner.Call{Bean: BeanController},
				planner.Call{Bean: BeanCart},
			}),
			page(PagePlaceOrder, nil),
			page(PageBilling, nil),
			page(PageCommit, planner.Seq{
				planner.Call{Bean: BeanController},
				planner.Call{Bean: BeanCart},
				planner.Call{Bean: BeanCustomer, Body: placeOrder},
			}),
			page(PageSignout, planner.Call{Bean: BeanCart}),
		},
	}
}
