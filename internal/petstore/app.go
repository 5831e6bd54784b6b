package petstore

import (
	"fmt"
	"strings"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/planner"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
	"wadeploy/internal/workload"
)

// Bean names (Table 1 plus the read-mostly additions of Section 4.3).
const (
	BeanCatalog    = "Catalog"
	BeanCustomer   = "Customer"
	BeanCart       = "ShoppingCart"
	BeanController = "ShoppingClientController"

	BeanCategory    = "Category"
	BeanProduct     = "Product"
	BeanItem        = "Item"
	BeanInventory   = "Inventory"
	BeanSignOn      = "SignOn"
	BeanAccount     = "Account"
	BeanOrder       = "Order"
	BeanOrderStatus = "OrderStatus"
	BeanLineItem    = "LineItem"
)

// Query-cache key prefixes (Section 4.4: the two cached Pet Store queries).
const (
	QueryProductsByCategory = "productsByCategory"
	QueryItemsByProduct     = "itemsByProduct"
)

// UpdateTopic is the JMS topic used in the asynchronous-updates
// configuration (Fig. 6).
const UpdateTopic = "petstore-updates"

// layout is Pet Store's one component list: Table 1's beans with their
// placement rules, plus the read-mostly entities Section 4.3 replicates.
// Deploy installs the entities and replicas from it and validates the plan
// it synthesizes; PlannerModel prices it.
var layout = &planner.Layout{
	App: "petstore",
	Components: []planner.Component{
		planner.Facade(BeanCatalog, container.StatelessSession, planner.EdgeWithEntityReplicas, edgeCatalog...),
		planner.Facade(BeanCustomer, container.StatelessSession, planner.EdgeNever),
		planner.Facade(BeanCart, container.StatefulSession, planner.EdgeWithWeb),
		planner.Facade(BeanController, container.StatefulSession, planner.EdgeWithWeb),
		planner.Entity(BeanCategory, "category", "catid"),
		planner.Entity(BeanProduct, "product", "productid"),
		planner.Entity(BeanItem, "item", "itemid"),
		planner.Entity(BeanInventory, "inventory", "itemid"),
		planner.Entity(BeanSignOn, "signon", "username"),
		planner.Entity(BeanAccount, "account", "userid"),
		planner.Entity(BeanOrder, "orders", "orderid"),
		planner.Entity(BeanOrderStatus, "orderstatus", "orderid"),
		planner.Entity(BeanLineItem, "lineitem", "lineid"),
	},
	Replicated: []string{BeanCategory, BeanProduct, BeanItem, BeanInventory},
	Sharded:    []string{BeanItem, BeanInventory}, // one itemid key space
}

// Layout is Pet Store's component list: what it deploys under each policy.
func Layout() *planner.Layout { return layout }

// edgeCatalog declares the edge Catalog (Fig. 4/5 wiring): the two catalog
// queries from the edge's query cache, scoped to its Item slice; an item
// from the Item and Inventory replicas; the keyword search, never cached
// (Section 4.4), on the edge's database replica when the policy has them.
var edgeCatalog = []container.EdgeMethodSpec{
	container.FromCache("getProductsOf", QueryProductsByCategory, catalogKey(QueryProductsByCategory)).OwnedBy(BeanItem),
	container.FromCache("getItemsOf", QueryItemsByProduct, catalogKey(QueryItemsByProduct)).OwnedBy(BeanItem),
	container.FromReplicas("getItem", func(p *sim.Proc, m *container.EdgeMethod, inv *container.Invocation) (any, error) {
		page, err := itemFromReplicas(p, m.Replicas, inv.Args[0])
		return container.Reply(inv, page, err)
	}, BeanItem, BeanInventory),
	container.FromEdgeDB("search", searchSQL, func(args []sqldb.Value) []sqldb.Value {
		like := likeArg(args[0])
		return []sqldb.Value{like, like}
	}),
}

// catalogKey keys a catalog query's cached result by the call's parameter.
func catalogKey(query string) func(args []sqldb.Value) string {
	return func(args []sqldb.Value) string { return query + ":" + args[0].AsString() }
}

// App is one deployed Pet Store instance under a specific policy.
type App struct {
	d *core.Deployment
	// serverFor routes a client group's requests the way Deploy placed the
	// web tier.
	serverFor func(clientNode string) *container.Server
	sites     []*site // one per web server

	itemRW      *container.RWEntity
	inventoryRW *container.RWEntity
	signonRW    *container.RWEntity
	accountRW   *container.RWEntity
	orderRW     *container.RWEntity
	statusRW    *container.RWEntity
	lineItemRW  *container.RWEntity

	wiring *core.Wiring

	carts       map[string]*container.StatefulBean
	controllers map[string]*container.StatefulBean

	sessions map[[2]string]*web.Session // by {client ID, server}
	orderSeq int64
	lineSeq  int64

	// The reply records of the calls in flight, by type (container.Invoke).
	categories sim.Free[CategoryPage]
	products   sim.Free[ProductPage]
	items      sim.Free[ItemPage]
	rows       sim.Free[container.Rows]
	counts     sim.Free[int64]
	summaries  sim.Free[CartSummary]
	strs       sim.Free[string]
	oks        sim.Free[bool]

	costs PageCosts
}

// PageCosts maps page name to its render cost.
type PageCosts map[string]container.PageCost

// DefaultPageCosts is calibrated so the centralized configuration's local
// response times land near Table 6's first row. Pet Store is deliberately a
// heavyweight application (design-pattern showcase, not a benchmark).
func DefaultPageCosts() PageCosts {
	kb := func(n int) *web.Response { return &web.Response{Status: 200, Bytes: n * 1024} }
	return PageCosts{
		PageMain:     {CPU: 12 * time.Millisecond, Lat: 64 * time.Millisecond, Page: kb(12)},
		PageCategory: {CPU: 14 * time.Millisecond, Lat: 66 * time.Millisecond, Page: kb(10)},
		PageProduct:  {CPU: 14 * time.Millisecond, Lat: 65 * time.Millisecond, Page: kb(10)},
		PageItem:     {CPU: 13 * time.Millisecond, Lat: 61 * time.Millisecond, Page: kb(8)},
		PageSearch:   {CPU: 16 * time.Millisecond, Lat: 72 * time.Millisecond, Page: kb(9)},

		PageSignin:       {CPU: 10 * time.Millisecond, Lat: 60 * time.Millisecond, Page: kb(4)},
		PageVerifySignin: {CPU: 12 * time.Millisecond, Lat: 58 * time.Millisecond, Page: kb(5)},
		PageCart:         {CPU: 14 * time.Millisecond, Lat: 88 * time.Millisecond, Page: kb(7)},
		PageCheckout:     {CPU: 12 * time.Millisecond, Lat: 56 * time.Millisecond, Page: kb(6)},
		PagePlaceOrder:   {CPU: 10 * time.Millisecond, Lat: 52 * time.Millisecond, Page: kb(6)},
		PageBilling:      {CPU: 10 * time.Millisecond, Lat: 52 * time.Millisecond, Page: kb(6)},
		PageCommit:       {CPU: 20 * time.Millisecond, Lat: 106 * time.Millisecond, Page: kb(7)},
		PageSignout:      {CPU: 12 * time.Millisecond, Lat: 66 * time.Millisecond, Page: kb(4)},
	}
}

// Deploy installs Pet Store into d under policy p: the schema and data, the
// entity beans and façades on the main server, web components and stateful
// session beans on every active server, and — depending on p — the
// replica bundle Wire installs on every edge, edge database replicas
// included. The deployment is checked against the plan the planner
// synthesizes for p from the component list.
func Deploy(d *core.Deployment, p core.Policy) (*App, error) {
	if err := layout.Check(p); err != nil {
		return nil, fmt.Errorf("petstore: %w", err)
	}
	if err := InitSchema(d.DB); err != nil {
		return nil, err
	}
	a := &App{
		d:           d,
		serverFor:   func(node string) *container.Server { return d.ServerFor(node, p) },
		carts:       make(map[string]*container.StatefulBean),
		controllers: make(map[string]*container.StatefulBean),
		sessions:    make(map[[2]string]*web.Session),
		costs:       DefaultPageCosts(),
	}
	if err := layout.DeployEntities(d); err != nil {
		return nil, fmt.Errorf("petstore: %w", err)
	}
	a.itemRW, a.inventoryRW = d.RW(BeanItem), d.RW(BeanInventory)
	a.signonRW, a.accountRW = d.RW(BeanSignOn), d.RW(BeanAccount)
	a.orderRW, a.statusRW, a.lineItemRW = d.RW(BeanOrder), d.RW(BeanOrderStatus), d.RW(BeanLineItem)
	if err := a.deployMainFacades(); err != nil {
		return nil, err
	}
	if err := a.deployWebTier(p); err != nil {
		return nil, err
	}
	if p.EntityReplicas {
		if _, err := a.Wire(p, d.Edges...); err != nil {
			return nil, err
		}
	}
	if err := layout.Plan(p, d.Main.Name(), d.EdgeNames()).Validate(); err != nil {
		return nil, fmt.Errorf("petstore: %w", err)
	}
	return a, nil
}

// Wiring exposes the auto-wired replicas and caches (nil without entity
// replicas).
func (a *App) Wiring() *core.Wiring { return a.wiring }

// deployMainFacades deploys the Catalog and Customer session façades on the
// main server.
func (a *App) deployMainFacades() error {
	if _, err := container.DeployStateless(a.d.Main, BeanCatalog, a.mainCatalogMethods()); err != nil {
		return fmt.Errorf("petstore: %w", err)
	}
	if _, err := container.DeployStateless(a.d.Main, BeanCustomer, a.customerMethods()); err != nil {
		return fmt.Errorf("petstore: %w", err)
	}
	return nil
}

// mainCatalogMethods implements the central Catalog façade: every method
// runs co-located with the database.
func (a *App) mainCatalogMethods() map[string]container.Method {
	srv := a.d.Main
	return map[string]container.Method{
		// getProductsOf returns the category row and its product rows.
		"getProductsOf": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			cat := inv.Args[0]
			catRes, err := srv.SQL(p, `SELECT * FROM category WHERE catid = ?`, cat)
			if err != nil {
				return nil, err
			}
			prodRes, err := srv.SQL(p, `SELECT * FROM product WHERE catid = ? ORDER BY productid`, cat)
			return container.Reply(inv, CategoryPage{Category: container.FirstRow(catRes), Products: container.RowsOf(prodRes)}, err)
		},
		// getItemsOf returns the product row and its item rows.
		"getItemsOf": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			pid := inv.Args[0]
			prodRes, err := srv.SQL(p, `SELECT * FROM product WHERE productid = ?`, pid)
			if err != nil {
				return nil, err
			}
			itemRes, err := srv.SQL(p, `SELECT * FROM item WHERE productid = ? ORDER BY itemid`, pid)
			return container.Reply(inv, ProductPage{Product: container.FirstRow(prodRes), Items: container.RowsOf(itemRes)}, err)
		},
		// getItem returns one item plus its inventory quantity.
		"getItem": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			item, err := a.itemRW.Load(p, inv.Args[0])
			if err != nil {
				return nil, err
			}
			invSt, err := a.inventoryRW.Load(p, inv.Args[0])
			return container.Reply(inv, ItemPage{Item: item, Qty: invSt.Get("qty").AsInt()}, err)
		},
		// search runs the keyword query (never cached, Section 4.4).
		"search": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			like := likeArg(inv.Args[0])
			res, err := srv.SQL(p, searchSQL, like, like)
			return container.Reply(inv, container.RowsOf(res), err)
		},
		// fetchState serves read-only replica refreshes (the remote façade
		// the read-mostly pattern queries on pull/miss).
		"fetchState": a.d.FetchState,
	}
}

// searchSQL is the keyword query: never cached (Section 4.4), run on main
// or on an edge's database replica, its one LIKE pattern bound twice.
const searchSQL = `SELECT * FROM product WHERE name LIKE ? OR descn LIKE ? ORDER BY productid LIMIT 25`

// likeArg is searchSQL's pattern for keyword kw.
func likeArg(kw sqldb.Value) sqldb.Value { return sqldb.Str("%" + kw.AsString() + "%") }

// customerMethods implements the Customer façade ("serves as a façade to
// Order and Account", Table 1).
func (a *App) customerMethods() map[string]container.Method {
	return map[string]container.Method{
		// createCustomer authenticates against the SignOn entity.
		"createCustomer": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			user, pass := inv.Args[0], inv.Args[1].AsString()
			st, err := a.signonRW.Load(p, user)
			if err != nil {
				return nil, fmt.Errorf("petstore signon: %w", err)
			}
			return container.Reply(inv, st.Get("password").AsString() == pass, nil)
		},
		// getProfile loads the Account entity.
		"getProfile": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			profile, err := a.accountRW.Load(p, inv.Args[0])
			return container.Reply(inv, profile, err)
		},
		// placeOrder commits the order: Order, OrderStatus and LineItem
		// creation plus the Inventory write whose propagation cost is the
		// crux of Sections 4.3–4.5.
		"placeOrder": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			user, itemID, qty := inv.Args[0], inv.Args[1], inv.Args[2].AsInt()
			item, err := a.itemRW.Load(p, itemID)
			if err != nil {
				return nil, err
			}
			if _, err := a.accountRW.Load(p, user); err != nil {
				return nil, err
			}
			a.orderSeq++
			orderID := a.orderSeq
			total := item.Get("listprice").AsFloat() * float64(qty)
			if err := a.orderRW.Insert(p, container.State{
				"orderid":    sqldb.Int(orderID),
				"userid":     user,
				"orderdate":  sqldb.Int(int64(p.Now() / time.Millisecond)),
				"totalprice": sqldb.Float(total),
			}); err != nil {
				return nil, err
			}
			if err := a.statusRW.Insert(p, container.State{
				"orderid": sqldb.Int(orderID),
				"status":  sqldb.Str("PENDING"),
			}); err != nil {
				return nil, err
			}
			a.lineSeq++
			if err := a.lineItemRW.Insert(p, container.State{
				"lineid":    sqldb.Int(a.lineSeq),
				"orderid":   sqldb.Int(orderID),
				"itemid":    itemID,
				"quantity":  sqldb.Int(qty),
				"unitprice": item.Get("listprice"),
			}); err != nil {
				return nil, err
			}
			// The Inventory write triggers replica propagation: blocking
			// in the sync configurations, fire-and-forget in async.
			invSt, err := a.inventoryRW.Load(p, itemID)
			if err != nil {
				return nil, err
			}
			_, err = a.inventoryRW.UpdateFields(p, itemID, container.State{
				"qty": sqldb.Int(invSt.Get("qty").AsInt() - qty),
			})
			return container.Reply(inv, orderID, err)
		},
	}
}

// site is one web server as its servlets and cart see it.
type site struct {
	srv *container.Server
	// getItem is the server's edge Catalog's, once Wire deploys one; nil
	// on main.
	getItem *container.EdgeMethod
}

// deployWebTier installs the stateful session beans and servlets on every
// server p places the web tier on.
func (a *App) deployWebTier(p core.Policy) error {
	for _, srv := range a.d.WebServers(p) {
		s := &site{srv: srv}
		a.sites = append(a.sites, s)
		cart, err := container.DeployStateful(srv, BeanCart, a.cartMethods(s))
		if err != nil {
			return fmt.Errorf("petstore: %w", err)
		}
		a.carts[srv.Name()] = cart
		ctrl, err := container.DeployStateful(srv, BeanController, map[string]container.Method{
			// handleEvent models the EJB-tier half of the MVC controller.
			"handleEvent": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				inv.State["events"] = sqldb.Int(inv.State["events"].AsInt() + 1)
				return nil, nil
			},
		})
		if err != nil {
			return fmt.Errorf("petstore: %w", err)
		}
		a.controllers[srv.Name()] = ctrl
		a.registerPages(s)
	}
	return nil
}

// cartMethods implements the ShoppingCart stateful session bean. The cart
// stores its lines in conversational state; addItem resolves item details
// through the server's Catalog path (which is where the policy bites: RMI
// without entity replicas, local read-only beans with them).
func (a *App) cartMethods(s *site) map[string]container.Method {
	return map[string]container.Method{
		"addItem": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			itemID := inv.Args[0]
			details, err := a.getItemVia(p, s, itemID)
			if err != nil {
				return nil, err
			}
			n := inv.State["count"].AsInt()
			itemKey, priceKey := cartLineKeys(n)
			inv.State[itemKey] = itemID
			inv.State[priceKey] = details.Item.Get("listprice")
			inv.State["count"] = sqldb.Int(n + 1)
			total := inv.State["total"].AsFloat() + details.Item.Get("listprice").AsFloat()
			inv.State["total"] = sqldb.Float(total)
			return container.Reply(inv, n+1, nil)
		},
		"summary": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return container.Reply(inv, CartSummary{
				Count: inv.State["count"].AsInt(),
				Total: inv.State["total"].AsFloat(),
			}, nil)
		},
		"firstItem": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return container.Reply(inv, inv.State["item0"].AsString(), nil)
		},
		"clear": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			for k := range inv.State {
				delete(inv.State, k)
			}
			return nil, nil
		},
	}
}

// getItemVia fetches item details the way the server's wiring dictates: from
// the replicas its edge Catalog's getItem is bound to, otherwise from the
// central Catalog (one RMI call from an edge), where that getItem would
// forward it.
func (a *App) getItemVia(p *sim.Proc, s *site, itemID sqldb.Value) (ItemPage, error) {
	if m := s.getItem; m != nil && m.Wired() {
		return itemFromReplicas(p, m.Replicas, itemID)
	}
	stub, err := s.srv.StubFor(p, simnet.NodeMain, BeanCatalog)
	if err != nil {
		return ItemPage{}, err
	}
	return container.Invoke(p, stub, &a.items, "getItem", itemID)
}

// itemFromReplicas reads an item and its inventory from an edge's Item and
// Inventory replicas, in that order.
func itemFromReplicas(p *sim.Proc, replicas []*container.ROEntity, itemID sqldb.Value) (ItemPage, error) {
	item, err := replicas[0].Get(p, itemID)
	if err != nil {
		return ItemPage{}, err
	}
	qtySt, err := replicas[1].Get(p, itemID)
	return ItemPage{Item: item, Qty: qtySt.Get("qty").AsInt()}, err
}

// Wire installs p's replica bundle on exactly the servers on, warm with the
// tables' current contents, and the declared edge Catalog on every edge. The
// bundle is p's extended deployment descriptor: read-only replicas of the
// component list's replicated beans with push refresh (Item and Inventory,
// which share the itemid key space, sharded per p's partition spec), the two
// catalog query caches when p has them, sync vs async propagation and the
// edge façades p places. Deploy wires every edge; an adaptive run wires none,
// and each edge Catalog forwards its reads to main until a migration cuts
// its edge over.
func (a *App) Wire(p core.Policy, on ...*container.Server) (*core.Wiring, error) {
	if !p.EntityReplicas {
		return nil, fmt.Errorf("petstore: %w", p.Unsupported("it has no entity replicas to wire"))
	}
	ext := layout.Descriptor(p, UpdateTopic)
	if p.QueryCaches {
		ext.CachedQueries = []container.CachedQuerySpec{
			{Name: QueryProductsByCategory, InvalidatedBy: []string{BeanProduct, BeanCategory}},
			{Name: QueryItemsByProduct, InvalidatedBy: []string{BeanItem, BeanProduct}},
		}
	}
	w, err := core.AutoWire(a.d, ext, core.WireOptions{
		FetchFor: func(server *container.Server, rwBean string) container.FetchFunc {
			return container.FetchFrom(server, simnet.NodeMain, BeanCatalog, "fetchState", sqldb.Str(rwBean))
		},
		// Pet Store uses the pull-based query-cache update mechanism
		// ("For simplicity", Section 4.4): a miss re-executes the Catalog
		// method that caches the query, on main, in one RMI call.
		QueryFetchFor: func(server *container.Server) container.QueryFetch {
			return func(p *sim.Proc, key string) (any, error) {
				stub, err := server.StubFor(p, simnet.NodeMain, BeanCatalog)
				if err != nil {
					return nil, err
				}
				query, param, _ := strings.Cut(key, ":")
				for _, m := range edgeCatalog {
					if m.Query == query {
						return stub.Invoke(p, m.Name, sqldb.Str(param))
					}
				}
				return nil, fmt.Errorf("petstore: no Catalog method caches %q", query)
			}
		},
	}, on...)
	if err != nil {
		return nil, fmt.Errorf("petstore: %w", err)
	}
	a.wiring = w
	for _, s := range a.sites {
		s.getItem = w.EdgeMethod(s.srv.Name(), BeanCatalog, "getItem")
	}
	if err := w.Preload(); err != nil {
		return nil, err
	}
	return w, nil
}

// CategoryPage, ProductPage, ItemPage and CartSummary are the façade return
// values the web tier renders.
type CategoryPage struct {
	Category container.Row
	Products container.Rows
}

type ProductPage struct {
	Product container.Row
	Items   container.Rows
}

type ItemPage struct {
	Item container.Row
	Qty  int64
}

type CartSummary struct {
	Count int64
	Total float64
}

// sessionFor returns (creating on demand) the client's web session on srv.
func (a *App) sessionFor(clientID string, srv *container.Server) *web.Session {
	k := [2]string{clientID, srv.Name()} // no joined string per page
	s, ok := a.sessions[k]
	if !ok {
		s = srv.Web().NewSession(clientID + "|" + srv.Name())
		a.sessions[k] = s
	}
	return s
}

// RequestFunc adapts the deployed app to the workload driver: each request
// is routed to the client group's server under the policy.
func (a *App) RequestFunc() workload.RequestFunc {
	return func(p *sim.Proc, client workload.Client, step workload.Step) (time.Duration, error) {
		srv := a.serverFor(client.Node)
		sess := a.sessionFor(client.ID, srv)
		_, rt, err := srv.Web().Get(p, client.Node, step.Page, step.Params, sess)
		return rt, err
	}
}
