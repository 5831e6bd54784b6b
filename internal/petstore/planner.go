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
// list Deploy installs from, the page cost profiles behind Tables 2–3 (each
// page's stub calls with their main-side SQL shapes, rendering cost and
// response size), and the paper's 80/20 two-remote-group client mix. What a
// call costs from an edge is read from the edge Catalog the component list
// declares.
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

	// getItemVia from the web tier (Item page, Cart.addItem): straight to
	// the edge's Item and Inventory replicas when it has them, otherwise
	// the Catalog's getItem, two entity loads.
	getItemVia := planner.Read{
		Beans: []string{BeanItem, BeanInventory},
		Else:  planner.Call{Bean: BeanCatalog, Method: "getItem", Body: planner.Seq{planner.Load{}, planner.Load{}}},
	}

	// placeOrder (Customer): Order/OrderStatus/LineItem creation plus the
	// Inventory write whose propagation is the crux of Sections 4.3–4.5.
	placeOrder := planner.Seq{
		planner.Load{}, // Item
		planner.Load{}, // Account
		planner.Insert{Bean: BeanOrder}, planner.Insert{Bean: BeanOrderStatus}, planner.Insert{Bean: BeanLineItem},
		planner.Load{}, // Inventory
		planner.Update{Bean: BeanInventory},
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
			page(PageCategory, planner.Call{Bean: BeanCatalog, Method: "getProductsOf", Body: productsOf}),
			page(PageProduct, planner.Call{Bean: BeanCatalog, Method: "getItemsOf", Body: itemsOf}),
			page(PageItem, getItemVia),
			page(PageSearch, planner.Call{Bean: BeanCatalog, Method: "search", Body: searchSQL}),
			page(PageSignin, nil),
			page(PageVerifySignin, planner.Seq{
				planner.Call{Bean: BeanCustomer, Method: "createCustomer", Body: planner.Load{}}, // SignOn
				planner.Call{Bean: BeanCustomer, Method: "getProfile", Body: planner.Load{}},     // Account
			}),
			page(PageCart, planner.Seq{
				planner.Call{Bean: BeanController, Method: "handleEvent"},
				planner.Call{Bean: BeanCart, Method: "addItem", Body: getItemVia},
			}),
			page(PageCheckout, planner.Seq{
				planner.Call{Bean: BeanController, Method: "handleEvent"},
				planner.Call{Bean: BeanCart, Method: "summary"},
			}),
			page(PagePlaceOrder, nil),
			page(PageBilling, nil),
			page(PageCommit, planner.Seq{
				planner.Call{Bean: BeanController, Method: "handleEvent"},
				planner.Call{Bean: BeanCart, Method: "firstItem"},
				planner.Call{Bean: BeanCustomer, Method: "placeOrder", Body: placeOrder},
			}),
			page(PageSignout, planner.Call{Bean: BeanCart, Method: "clear"}),
		},
	}
}
