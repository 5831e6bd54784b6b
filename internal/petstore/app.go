package petstore

import (
	"fmt"
	"strings"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/dbrepl"
	"wadeploy/internal/planner"
	"wadeploy/internal/rmi"
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
		planner.Facade(BeanCatalog, container.StatelessSession, planner.EdgeWithAnyCache),
		planner.Facade(BeanCustomer, container.StatelessSession, planner.EdgeNever),
		planner.Facade(BeanCart, container.StatefulSession, planner.EdgeWithWeb),
		planner.Facade(BeanController, container.StatefulSession, planner.EdgeWithWeb),
		planner.Entity(BeanCategory, "category", "catid", container.BMP),
		planner.Entity(BeanProduct, "product", "productid", container.BMP),
		planner.Entity(BeanItem, "item", "itemid", container.BMP),
		planner.Entity(BeanInventory, "inventory", "itemid", container.BMP),
		planner.Entity(BeanSignOn, "signon", "username", container.BMP),
		planner.Entity(BeanAccount, "account", "userid", container.BMP),
		planner.Entity(BeanOrder, "orders", "orderid", container.BMP),
		planner.Entity(BeanOrderStatus, "orderstatus", "orderid", container.BMP),
		planner.Entity(BeanLineItem, "lineitem", "lineid", container.BMP),
	},
	Replicated: []string{BeanCategory, BeanProduct, BeanItem, BeanInventory},
}

// App is one deployed Pet Store instance under a specific policy.
type App struct {
	d      *core.Deployment
	policy core.Policy

	categoryRW  *container.RWEntity
	productRW   *container.RWEntity
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

	costs PageCosts
}

// PageCost is the application-side cost of rendering one page, split into
// CPU (charged to the server, creating contention) and latency (JSP
// pipeline, logging, connection handling — time that does not occupy a CPU
// slot), and the page it renders.
type PageCost struct {
	CPU  time.Duration
	Lat  time.Duration
	Page *web.Response // the rendered page, shared read-only by its requests
}

// PageCosts maps page name to its render cost.
type PageCosts map[string]PageCost

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
// replica bundle Wire installs on every edge and edge database replicas. The
// deployment is checked against the plan the planner synthesizes for p from
// the component list.
func Deploy(d *core.Deployment, p core.Policy) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("petstore: %w", err)
	}
	if p.QueryCaches && !p.EntityReplicas {
		// The pull-refreshed caches hear of Category/Product/Item writes
		// only through the replicas' update pushes.
		return nil, fmt.Errorf("petstore: %w", p.Unsupported("query caches need the entity replicas' update pushes to invalidate them"))
	}
	if err := InitSchema(d.DB); err != nil {
		return nil, err
	}
	a := &App{
		d:           d,
		policy:      p,
		carts:       make(map[string]*container.StatefulBean),
		controllers: make(map[string]*container.StatefulBean),
		sessions:    make(map[[2]string]*web.Session),
		costs:       DefaultPageCosts(),
	}
	if err := a.deployEntities(); err != nil {
		return nil, err
	}
	if err := a.deployMainFacades(); err != nil {
		return nil, err
	}
	if err := a.deployWebTier(); err != nil {
		return nil, err
	}
	if p.EntityReplicas {
		if _, err := a.Wire(p, d.Edges...); err != nil {
			return nil, err
		}
	}
	if p.DBReplicas {
		if err := a.wireDBReplicas(); err != nil {
			return nil, err
		}
	}
	if err := layout.Plan(p, d.Main.Name(), d.EdgeNames()).Validate(); err != nil {
		return nil, fmt.Errorf("petstore: %w", err)
	}
	return a, nil
}

// wireDBReplicas sets up the Section 6 extension: asynchronous
// statement-based database replication to every edge server, so highly
// customized aggregate queries (the keyword Search) execute locally at the
// edges instead of crossing the WAN. Each replica starts from an identical
// schema+seed snapshot; committed writes stream to it in order.
func (a *App) wireDBReplicas() error {
	primary, err := dbrepl.NewPrimary(a.d.Net, simnet.NodeDB, a.d.DB)
	if err != nil {
		return fmt.Errorf("petstore: %w", err)
	}
	for _, edge := range a.d.Edges {
		replica, err := primary.Attach(edge.Name(), InitSchema)
		if err != nil {
			return fmt.Errorf("petstore: %w", err)
		}
		edge.AttachReplicaDB(replica.DB)
	}
	return nil
}

// Wiring exposes the auto-wired replicas and caches (nil without entity
// replicas).
func (a *App) Wiring() *core.Wiring { return a.wiring }

// deployEntities deploys the component list's entity beans on the main
// server.
func (a *App) deployEntities() error {
	for _, c := range layout.Components {
		if c.Desc.Kind != container.Entity {
			continue
		}
		b, err := container.DeployRWEntity(a.d.Main, c.Desc.Name, c.Desc.Table, c.Desc.PKColumn)
		if err != nil {
			return fmt.Errorf("petstore: %w", err)
		}
		a.d.RegisterRW(b)
	}
	a.categoryRW, a.productRW = a.d.RW(BeanCategory), a.d.RW(BeanProduct)
	a.itemRW, a.inventoryRW = a.d.RW(BeanItem), a.d.RW(BeanInventory)
	a.signonRW, a.accountRW = a.d.RW(BeanSignOn), a.d.RW(BeanAccount)
	a.orderRW, a.statusRW, a.lineItemRW = a.d.RW(BeanOrder), a.d.RW(BeanOrderStatus), a.d.RW(BeanLineItem)
	return nil
}

// catalogStub resolves the Catalog façade a server should talk to: its own
// when one is deployed locally, otherwise the central one (EJBHomeFactory
// caching applies either way).
func (a *App) catalogStub(p *sim.Proc, srv *container.Server) (*rmi.Stub, error) {
	target := simnet.NodeMain
	if srv.HasBean(BeanCatalog) {
		target = srv.Name()
	}
	return srv.StubFor(p, target, BeanCatalog)
}

// centralCatalogStub always targets the main server's Catalog.
func (a *App) centralCatalogStub(p *sim.Proc, srv *container.Server) (*rmi.Stub, error) {
	return srv.StubFor(p, simnet.NodeMain, BeanCatalog)
}

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
			if err != nil {
				return nil, err
			}
			return &CategoryPage{Category: container.FirstRow(catRes), Products: container.RowsOf(prodRes)}, nil
		},
		// getItemsOf returns the product row and its item rows.
		"getItemsOf": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			pid := inv.Args[0]
			prodRes, err := srv.SQL(p, `SELECT * FROM product WHERE productid = ?`, pid)
			if err != nil {
				return nil, err
			}
			itemRes, err := srv.SQL(p, `SELECT * FROM item WHERE productid = ? ORDER BY itemid`, pid)
			if err != nil {
				return nil, err
			}
			return &ProductPage{Product: container.FirstRow(prodRes), Items: container.RowsOf(itemRes)}, nil
		},
		// getItem returns one item plus its inventory quantity.
		"getItem": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return a.loadItemDetails(p, inv.Args[0])
		},
		// search runs the keyword query (never cached, Section 4.4).
		"search": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			like := likeArg(inv.Args[0])
			res, err := srv.SQL(p, searchSQL, like, like)
			if err != nil {
				return nil, err
			}
			return container.RowsOf(res), nil
		},
		// fetchState serves read-only replica refreshes (the remote façade
		// the read-mostly pattern queries on pull/miss).
		"fetchState": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			bean, pk := inv.Args[0].AsString(), inv.Args[1]
			rw := a.d.RW(bean)
			if rw == nil {
				return nil, fmt.Errorf("petstore: fetchState: %w: %s", container.ErrNoSuchBean, bean)
			}
			return rw.Load(p, pk)
		},
	}
}

// searchSQL is the keyword query: never cached (Section 4.4), run on main
// or on an edge's database replica, its one LIKE pattern bound twice.
const searchSQL = `SELECT * FROM product WHERE name LIKE ? OR descn LIKE ? ORDER BY productid LIMIT 25`

// likeArg is searchSQL's pattern for keyword kw.
func likeArg(kw sqldb.Value) sqldb.Value { return sqldb.Str("%" + kw.AsString() + "%") }

// loadItemDetails loads an item row plus inventory on the main server.
func (a *App) loadItemDetails(p *sim.Proc, itemID sqldb.Value) (*ItemPage, error) {
	item, err := a.itemRW.Load(p, itemID)
	if err != nil {
		return nil, err
	}
	invSt, err := a.inventoryRW.Load(p, itemID)
	if err != nil {
		return nil, err
	}
	return &ItemPage{Item: item, Qty: invSt.Get("qty").AsInt()}, nil
}

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
			if st.Get("password").AsString() != pass {
				return false, nil
			}
			return true, nil
		},
		// getProfile loads the Account entity.
		"getProfile": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return a.accountRW.Load(p, inv.Args[0])
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
			if _, err := a.inventoryRW.UpdateFields(p, itemID, container.State{
				"qty": sqldb.Int(invSt.Get("qty").AsInt() - qty),
			}); err != nil {
				return nil, err
			}
			return orderID, nil
		},
	}
}

// deployWebTier installs the stateful session beans and servlets on every
// active server.
func (a *App) deployWebTier() error {
	for _, srv := range a.d.WebServers(a.policy) {
		cart, err := container.DeployStateful(srv, BeanCart, a.cartMethods(srv))
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
		a.registerPages(srv)
	}
	return nil
}

// cartMethods implements the ShoppingCart stateful session bean. The cart
// stores its lines in conversational state; addItem resolves item details
// through the server's Catalog path (which is where the policy bites: RMI
// without entity replicas, local read-only beans with them).
func (a *App) cartMethods(srv *container.Server) map[string]container.Method {
	return map[string]container.Method{
		"addItem": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			itemID := inv.Args[0]
			details, err := a.getItemVia(p, srv, itemID)
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
			return n + 1, nil
		},
		"summary": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return CartSummary{
				Count: inv.State["count"].AsInt(),
				Total: inv.State["total"].AsFloat(),
			}, nil
		},
		"firstItem": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return inv.State["item0"].AsString(), nil
		},
		"clear": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			for k := range inv.State {
				delete(inv.State, k)
			}
			return nil, nil
		},
	}
}

// useReplicas reports whether srv should answer catalog reads from its
// read-only replicas. Checking the live wiring rather than the deployed
// policy is what lets an adaptive run change answer mid-flight: the moment a
// migration cuts an edge over, its handlers start hitting the replicas. (A
// wired edge always holds replicas: Deploy refuses query caches without
// them.)
func (a *App) useReplicas(srv *container.Server) bool {
	return srv.Name() != simnet.NodeMain && a.wiring != nil && a.wiring.DeployedOn(srv.Name())
}

// useQueryCache mirrors useReplicas for the query-cache tier.
func (a *App) useQueryCache(srv *container.Server) bool {
	return a.wiring != nil && a.wiring.Cache(srv.Name()) != nil
}

// getItemVia fetches item details the way the policy dictates: local
// read-only beans when the server has them, otherwise via the Catalog façade
// (one RMI call from an edge).
func (a *App) getItemVia(p *sim.Proc, srv *container.Server, itemID sqldb.Value) (*ItemPage, error) {
	if a.useReplicas(srv) {
		itemRO := a.wiring.Replica(srv.Name(), BeanItem)
		invRO := a.wiring.Replica(srv.Name(), BeanInventory)
		item, err := itemRO.Get(p, itemID)
		if err != nil {
			return nil, err
		}
		qtySt, err := invRO.Get(p, itemID)
		if err != nil {
			return nil, err
		}
		return &ItemPage{Item: item, Qty: qtySt.Get("qty").AsInt()}, nil
	}
	// The fallback targets the central Catalog, not catalogStub: the edge
	// Catalog's own getItem lands here before its edge is cut over, and
	// resolving the local Catalog again would recurse forever.
	stub, err := a.centralCatalogStub(p, srv)
	if err != nil {
		return nil, err
	}
	v, err := stub.Invoke(p, "getItem", itemID)
	if err != nil {
		return nil, err
	}
	page, ok := v.(*ItemPage)
	if !ok {
		return nil, fmt.Errorf("petstore: getItem returned %T", v)
	}
	return page, nil
}

// Wire installs p's replica bundle on exactly the servers on, warm with the
// tables' current contents, and a replica-backed Catalog on every edge. The
// bundle is p's extended deployment descriptor: read-only replicas of the
// component list's replicated beans with push refresh (Item and Inventory,
// which share the itemid key space, sharded per p's partition spec), the two
// catalog query caches when p has them, and sync vs async propagation. Deploy
// wires every edge. An adaptive run deploys the remote-façade configuration,
// wires its target onto no server and hands the wiring to the re-placement
// controller: each edge Catalog forwards its reads to main until a migration
// cuts its edge over.
func (a *App) Wire(p core.Policy, on ...*container.Server) (*core.Wiring, error) {
	if !p.EntityReplicas {
		return nil, fmt.Errorf("petstore: %w", p.Unsupported("it has no entity replicas to wire"))
	}
	update := container.SyncUpdate
	if p.AsyncUpdates {
		update = container.AsyncUpdate
	}
	ext := &container.ExtendedDescriptor{Topic: UpdateTopic}
	for _, bean := range layout.Replicated {
		spec := container.ReplicaSpec{Bean: bean, Update: update}
		if bean == BeanItem || bean == BeanInventory {
			spec.Partition = p.Partition
		}
		ext.Replicas = append(ext.Replicas, spec)
	}
	if p.QueryCaches {
		ext.CachedQueries = []container.CachedQuerySpec{
			{Name: QueryProductsByCategory, InvalidatedBy: []string{BeanProduct, BeanCategory}},
			{Name: QueryItemsByProduct, InvalidatedBy: []string{BeanItem, BeanProduct}},
		}
	}
	w, err := core.AutoWire(a.d, ext, core.WireOptions{
		PushBytes: replicaPushBytes,
		FetchFor: func(server *container.Server, rwBean string) container.FetchFunc {
			return container.FetchFrom(server, simnet.NodeMain, BeanCatalog, "fetchState", sqldb.Str(rwBean))
		},
		// Pet Store uses the pull-based query-cache update mechanism
		// ("For simplicity", Section 4.4): misses re-execute against the
		// central Catalog in one RMI call.
		QueryFetchFor: func(server *container.Server) container.QueryFetch {
			return func(p *sim.Proc, key string) (any, error) {
				stub, err := a.centralCatalogStub(p, server)
				if err != nil {
					return nil, err
				}
				name, param, ok := strings.Cut(key, ":")
				if !ok {
					return nil, fmt.Errorf("petstore: malformed query key %q", key)
				}
				switch name {
				case QueryProductsByCategory:
					return stub.Invoke(p, "getProductsOf", sqldb.Str(param))
				case QueryItemsByProduct:
					return stub.Invoke(p, "getItemsOf", sqldb.Str(param))
				default:
					return nil, fmt.Errorf("petstore: unknown cached query %q", name)
				}
			}
		},
	}, on...)
	if err != nil {
		return nil, fmt.Errorf("petstore: %w", err)
	}
	a.wiring = w
	if err := w.Preload(); err != nil {
		return nil, err
	}
	if err := a.deployEdgeCatalogs(); err != nil {
		return nil, err
	}
	return w, nil
}

// deployEdgeCatalogs installs the replica-backed edge Catalog façade
// (Fig. 4/5 wiring) on every edge.
func (a *App) deployEdgeCatalogs() error {
	for _, edge := range a.d.Edges {
		if _, err := container.DeployStateless(edge, BeanCatalog, a.edgeCatalogMethods(edge)); err != nil {
			return fmt.Errorf("petstore: %w", err)
		}
	}
	return nil
}

// edgeCatalogMethods builds the replica-backed edge Catalog implementation
// for one edge server. Each call checks the live wiring, so an edge whose
// bundle has not arrived yet (an adaptive run before its cut-over) forwards every read to the central Catalog in one WAN call, and answers
// from its replicas from the event Wiring.ExtendTo installs them in.
func (a *App) edgeCatalogMethods(edge *container.Server) map[string]container.Method {
	delegate := func(p *sim.Proc, method string, param sqldb.Value) (any, error) {
		stub, err := a.centralCatalogStub(p, edge)
		if err != nil {
			return nil, err
		}
		return stub.Invoke(p, method, param)
	}
	cached := func(p *sim.Proc, queryName, method string, param sqldb.Value) (any, error) {
		if a.useQueryCache(edge) && a.ownsQueryParam(edge, param) {
			return a.wiring.Cache(edge.Name()).Get(p, queryName+":"+param.AsString())
		}
		return delegate(p, method, param)
	}
	return map[string]container.Method{
		"getProductsOf": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return cached(p, QueryProductsByCategory, "getProductsOf", inv.Args[0])
		},
		"getItemsOf": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return cached(p, QueryItemsByProduct, "getItemsOf", inv.Args[0])
		},
		"getItem": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			page, err := a.getItemVia(p, edge, inv.Args[0])
			if err != nil {
				return nil, err
			}
			return page, nil
		},
		// Aggregate keyword queries execute centrally — unless the
		// DB-replication extension gives this edge a local replica.
		"search": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			if edge.HasReplicaDB() {
				like := likeArg(inv.Args[0])
				res, err := edge.SQLReplica(p, searchSQL, like, like)
				if err != nil {
					return nil, err
				}
				return container.RowsOf(res), nil
			}
			return delegate(p, "search", inv.Args[0])
		},
	}
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
		srv := a.d.ServerFor(client.Node, a.policy)
		sess := a.sessionFor(client.ID, srv)
		_, rt, err := srv.Web().Get(p, client.Node, step.Page, step.Params, sess)
		return rt, err
	}
}
