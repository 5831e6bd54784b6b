package petstore

import (
	"wadeploy/internal/core"
	"wadeploy/internal/planner"
)

// PlannerModel describes Pet Store to the deployment advisor: the component
// list Deploy installs from, each page of Tables 2–3 as its stub calls with
// their main-side SQL shapes, the render costs the web tier charges, and
// the client mix Workload runs. What a call costs from an edge is read from
// the edge Catalog the component list declares.
func PlannerModel() *planner.Model {
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

	patterns, classes := planner.ClientMix(clientGroup)
	return &planner.Model{
		Layout:    layout,
		Options:   core.DefaultOptions(),
		Patterns:  patterns,
		Classes:   classes,
		PageCosts: DefaultPageCosts(),
		Pages: []planner.Page{
			{Name: PageMain},
			{Name: PageCategory, Body: planner.Call{Bean: BeanCatalog, Method: "getProductsOf", Body: productsOf}},
			{Name: PageProduct, Body: planner.Call{Bean: BeanCatalog, Method: "getItemsOf", Body: itemsOf}},
			{Name: PageItem, Body: getItemVia},
			{Name: PageSearch, Body: planner.Call{Bean: BeanCatalog, Method: "search", Body: searchSQL}},
			{Name: PageSignin},
			{Name: PageVerifySignin, Body: planner.Seq{
				planner.Call{Bean: BeanCustomer, Method: "createCustomer", Body: planner.Load{}}, // SignOn
				planner.Call{Bean: BeanCustomer, Method: "getProfile", Body: planner.Load{}},     // Account
			}},
			{Name: PageCart, Body: planner.Seq{
				planner.Call{Bean: BeanController, Method: "handleEvent"},
				planner.Call{Bean: BeanCart, Method: "addItem", Body: getItemVia},
			}},
			{Name: PageCheckout, Body: planner.Seq{
				planner.Call{Bean: BeanController, Method: "handleEvent"},
				planner.Call{Bean: BeanCart, Method: "summary"},
			}},
			{Name: PagePlaceOrder},
			{Name: PageBilling},
			{Name: PageCommit, Body: planner.Seq{
				planner.Call{Bean: BeanController, Method: "handleEvent"},
				planner.Call{Bean: BeanCart, Method: "firstItem"},
				planner.Call{Bean: BeanCustomer, Method: "placeOrder", Body: placeOrder},
			}},
			{Name: PageSignout, Body: planner.Call{Bean: BeanCart, Method: "clear"}},
		},
	}
}
