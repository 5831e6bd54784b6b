package rubis

import (
	"fmt"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/planner"
	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

// Stateless session façade names (the Session Façade configuration of the
// original RUBiS study, which the paper takes as its baseline).
const (
	SBBrowseCategories = "SB_BrowseCategories"
	SBBrowseRegions    = "SB_BrowseRegions"
	SBSearchByCategory = "SB_SearchItemsByCategory"
	SBSearchByRegion   = "SB_SearchItemsByRegion"
	SBViewItem         = "SB_ViewItem"
	SBViewBidHistory   = "SB_ViewBidHistory"
	SBViewUserInfo     = "SB_ViewUserInfo"
	SBPutBid           = "SB_PutBid"
	SBStoreBid         = "SB_StoreBid"
	SBPutComment       = "SB_PutComment"
	SBStoreComment     = "SB_StoreComment"
)

// Entity bean names.
const (
	BeanItem     = "Item"
	BeanUser     = "User"
	BeanBid      = "Bid"
	BeanComment  = "Comment"
	BeanCategory = "CategoryEntity"
	BeanRegion   = "RegionEntity"
)

// UpdateTopic is the JMS topic for the asynchronous-updates configuration.
const UpdateTopic = "rubis-updates"

// layout is RUBiS's one component list: the session façades of the Session
// Façade configuration with their placement rules, the entity beans, and the
// Item and User beans the read-mostly pattern replicates. Deploy installs the
// entities and replicas from it and validates the plan it synthesizes;
// PlannerModel prices it.
var layout = &planner.Layout{
	App: "rubis",
	Components: []planner.Component{
		planner.Facade(SBBrowseCategories, container.StatelessSession, planner.EdgeWithQueryCaches),
		planner.Facade(SBBrowseRegions, container.StatelessSession, planner.EdgeWithQueryCaches),
		planner.Facade(SBSearchByCategory, container.StatelessSession, planner.EdgeWithQueryCaches),
		planner.Facade(SBSearchByRegion, container.StatelessSession, planner.EdgeWithQueryCaches),
		planner.Facade(SBViewItem, container.StatelessSession, planner.EdgeWithEntityReplicas),
		planner.Facade(SBViewBidHistory, container.StatelessSession, planner.EdgeWithEntityReplicas),
		planner.Facade(SBViewUserInfo, container.StatelessSession, planner.EdgeWithEntityReplicas),
		planner.Facade(SBPutBid, container.StatelessSession, planner.EdgeWithQueryCaches),
		planner.Facade(SBPutComment, container.StatelessSession, planner.EdgeWithQueryCaches),
		planner.Facade(SBStoreBid, container.StatelessSession, planner.EdgeNever),
		planner.Facade(SBStoreComment, container.StatelessSession, planner.EdgeNever),
		planner.Entity(BeanItem, "items", "id", container.CMP),
		planner.Entity(BeanUser, "users", "id", container.CMP),
		planner.Entity(BeanBid, "bids", "id", container.CMP),
		planner.Entity(BeanComment, "comments", "id", container.CMP),
		planner.Entity(BeanCategory, "categories", "id", container.CMP),
		planner.Entity(BeanRegion, "regions", "id", container.CMP),
	},
	Replicated: []string{BeanItem, BeanUser},
}

// App is one deployed RUBiS instance under a specific policy.
type App struct {
	d      *core.Deployment
	policy core.Policy

	itemRW     *container.RWEntity
	userRW     *container.RWEntity
	bidRW      *container.RWEntity
	commentRW  *container.RWEntity
	categoryRW *container.RWEntity
	regionRW   *container.RWEntity

	wiring *core.Wiring

	bidSeq     int64
	commentSeq int64

	costs PageCosts
}

// PageCost splits a page's render cost into CPU and non-CPU latency, and
// holds the page it renders.
type PageCost struct {
	CPU  time.Duration
	Lat  time.Duration
	Page *web.Response // the rendered page, shared read-only by its requests
}

// PageCosts maps page name to render cost.
type PageCosts map[string]PageCost

// DefaultPageCosts is calibrated against Table 7's centralized row: RUBiS is
// a deliberately lightweight, benchmark-grade application.
func DefaultPageCosts() PageCosts {
	kb := func(n int) *web.Response { return &web.Response{Status: 200, Bytes: n * 1024} }
	return PageCosts{
		PageMain:           {CPU: 2 * time.Millisecond, Lat: 9 * time.Millisecond, Page: kb(2)},
		PageBrowse:         {CPU: 2 * time.Millisecond, Lat: 8 * time.Millisecond, Page: kb(2)},
		PageAllCategories:  {CPU: 4 * time.Millisecond, Lat: 24 * time.Millisecond, Page: kb(4)},
		PageAllRegions:     {CPU: 4 * time.Millisecond, Lat: 17 * time.Millisecond, Page: kb(4)},
		PageRegion:         {CPU: 5 * time.Millisecond, Lat: 24 * time.Millisecond, Page: kb(4)},
		PageCategory:       {CPU: 6 * time.Millisecond, Lat: 31 * time.Millisecond, Page: kb(8)},
		PageCatRegion:      {CPU: 4 * time.Millisecond, Lat: 12 * time.Millisecond, Page: kb(6)},
		PageItem:           {CPU: 4 * time.Millisecond, Lat: 16 * time.Millisecond, Page: kb(4)},
		PageBids:           {CPU: 6 * time.Millisecond, Lat: 28 * time.Millisecond, Page: kb(6)},
		PageUserInfo:       {CPU: 6 * time.Millisecond, Lat: 31 * time.Millisecond, Page: kb(6)},
		PagePutBidAuth:     {CPU: 2 * time.Millisecond, Lat: 8 * time.Millisecond, Page: kb(2)},
		PagePutBidForm:     {CPU: 5 * time.Millisecond, Lat: 20 * time.Millisecond, Page: kb(4)},
		PageStoreBid:       {CPU: 6 * time.Millisecond, Lat: 22 * time.Millisecond, Page: kb(3)},
		PagePutCommentAuth: {CPU: 2 * time.Millisecond, Lat: 8 * time.Millisecond, Page: kb(2)},
		PagePutCommentForm: {CPU: 5 * time.Millisecond, Lat: 15 * time.Millisecond, Page: kb(4)},
		PageStoreComment:   {CPU: 6 * time.Millisecond, Lat: 22 * time.Millisecond, Page: kb(3)},
	}
}

// DeployOptions returns deployment options calibrated for the RUBiS tests
// (JBoss 3.0.3 / Jetty 4.1.0): leaner RMI than the Pet Store era stack.
func DeployOptions() core.Options {
	o := core.DefaultOptions()
	o.RMI.Rounds = 1.25
	o.Web.DispatchCPU = time.Millisecond
	return o
}

// Deploy installs RUBiS into d under policy p: the schema and data, the
// entity beans and session façades on the main server, the servlets on every
// active server, and — depending on p — the read-only Item and User replicas
// (Items sharded per p.Partition; Users stay full, because edge
// authentication needs every nickname everywhere), the edge façades, the
// push-refreshed query caches and update propagation. The deployment is
// checked against the plan the planner synthesizes for p from the component
// list. RUBiS has no deferred (core.Options.Deferred) or DB-replica path.
func Deploy(d *core.Deployment, p core.Policy) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("rubis: %w", err)
	}
	switch {
	case d.Deferred:
		return nil, fmt.Errorf("rubis: %w", p.Unsupported("RUBiS has no on-demand deployment path"))
	case p.DBReplicas:
		return nil, fmt.Errorf("rubis: %w", p.Unsupported("RUBiS has no edge database replicas"))
	case p.QueryCaches && !p.EntityReplicas:
		// The edge bid and comment forms read the Item and User replicas.
		return nil, fmt.Errorf("rubis: %w", p.Unsupported("the edge bid and comment forms need the entity replicas"))
	}
	if err := InitSchema(d.DB); err != nil {
		return nil, err
	}
	a := &App{
		d:          d,
		policy:     p,
		bidSeq:     int64(NumItems * SeedBidsPerItem),
		commentSeq: int64(SeedComments),
		costs:      DefaultPageCosts(),
	}
	if err := a.deployEntities(); err != nil {
		return nil, err
	}
	if err := a.deployMainFacades(); err != nil {
		return nil, err
	}
	for _, srv := range a.d.WebServers(a.policy) {
		a.registerPages(srv)
	}
	if p.EntityReplicas {
		if err := a.wireReplicas(); err != nil {
			return nil, err
		}
		if err := a.deployEdgeFacades(); err != nil {
			return nil, err
		}
	}
	if err := layout.Plan(p, d.Main.Name(), d.EdgeNames()).Validate(); err != nil {
		return nil, fmt.Errorf("rubis: %w", err)
	}
	return a, nil
}

// Deployment returns the underlying deployment.
func (a *App) Deployment() *core.Deployment { return a.d }

// Wiring exposes the auto-wired replicas and caches.
func (a *App) Wiring() *core.Wiring { return a.wiring }

// Bids and Comments report committed write counts.
func (a *App) Bids() int64     { return a.bidSeq - int64(NumItems*SeedBidsPerItem) }
func (a *App) Comments() int64 { return a.commentSeq - int64(SeedComments) }

// deployEntities deploys the component list's entity beans on the main
// server.
func (a *App) deployEntities() error {
	for _, c := range layout.Components {
		if c.Desc.Kind != container.Entity {
			continue
		}
		b, err := container.DeployRWEntity(a.d.Main, c.Desc.Name, c.Desc.Table, c.Desc.PKColumn)
		if err != nil {
			return fmt.Errorf("rubis: %w", err)
		}
		a.d.RegisterRW(b)
	}
	a.itemRW, a.userRW, a.bidRW = a.d.RW(BeanItem), a.d.RW(BeanUser), a.d.RW(BeanBid)
	a.commentRW, a.categoryRW, a.regionRW = a.d.RW(BeanComment), a.d.RW(BeanCategory), a.d.RW(BeanRegion)
	return nil
}

// sbStub resolves a session-façade stub: the local deployment when the
// server has one, otherwise the central façade on main.
func (a *App) sbStub(p *sim.Proc, srv *container.Server, bean string) (*rmi.Stub, error) {
	target := simnet.NodeMain
	if srv.HasBean(bean) {
		target = srv.Name()
	}
	return srv.StubFor(p, target, bean)
}

// runQuery executes q with full cost accounting on srv.
func runQuery(p *sim.Proc, srv *container.Server, q query) ([]container.Row, error) {
	res, err := srv.SQL(p, q.sql, q.args...)
	if err != nil {
		return nil, err
	}
	return container.RowsOf(res).Slice(), nil
}

// runDirect executes q against the database with no simulated cost: used at
// deploy time (preloading) and inside push recomputation, where the real
// system computes results on the main server and ships them in the bulk
// push message.
func runDirect(db *sqldb.DB, q query) ([]container.Row, error) {
	res, err := db.Exec(q.sql, q.args...)
	if err != nil {
		return nil, err
	}
	return container.RowsOf(res).Slice(), nil
}

// authenticate verifies credentials on the main server (the SignOn step that
// precedes every RUBiS write activity).
func (a *App) authenticate(p *sim.Proc, nick, pass string) (container.Row, error) {
	rows, err := runQuery(p, a.d.Main, qUserByNick(nick))
	if err != nil {
		return container.Row{}, err
	}
	if len(rows) == 0 || rows[0].Get("password").AsString() != pass {
		return container.Row{}, fmt.Errorf("rubis: bad credentials for %s", nick)
	}
	return rows[0], nil
}

// deployMainFacades installs the central session façades.
func (a *App) deployMainFacades() error {
	main := a.d.Main
	deploy := func(name string, methods map[string]container.Method) error {
		if _, err := container.DeployStateless(main, name, methods); err != nil {
			return fmt.Errorf("rubis: %w", err)
		}
		return nil
	}
	m := func(fn func(p *sim.Proc, inv *container.Invocation) (any, error)) map[string]container.Method {
		return map[string]container.Method{"get": fn}
	}
	if err := deploy(SBBrowseCategories, map[string]container.Method{
		"getAll": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return runQuery(p, main, qAllCategories())
		},
		"forRegion": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return runQuery(p, main, qRegionCategories(inv.Args[0].AsInt()))
		},
	}); err != nil {
		return err
	}
	if err := deploy(SBBrowseRegions, map[string]container.Method{
		"getAll": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return runQuery(p, main, qAllRegions())
		},
	}); err != nil {
		return err
	}
	if err := deploy(SBSearchByCategory, m(func(p *sim.Proc, inv *container.Invocation) (any, error) {
		return runQuery(p, main, qItemsByCategory(inv.Args[0].AsInt()))
	})); err != nil {
		return err
	}
	if err := deploy(SBSearchByRegion, m(func(p *sim.Proc, inv *container.Invocation) (any, error) {
		return runQuery(p, main, qItemsByCatRegion(inv.Args[0].AsInt(), inv.Args[1].AsInt()))
	})); err != nil {
		return err
	}
	if err := deploy(SBViewItem, map[string]container.Method{
		"get": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return a.itemRW.Load(p, inv.Args[0])
		},
		// fetchState feeds read-only replica refreshes.
		"fetchState": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			bean, pk := inv.Args[0].AsString(), inv.Args[1]
			rw := a.d.RW(bean)
			if rw == nil {
				return nil, fmt.Errorf("rubis: fetchState: %w: %s", container.ErrNoSuchBean, bean)
			}
			return rw.Load(p, pk)
		},
	}); err != nil {
		return err
	}
	if err := deploy(SBViewBidHistory, m(func(p *sim.Proc, inv *container.Invocation) (any, error) {
		return runQuery(p, main, qBidHistory(inv.Args[0].AsInt()))
	})); err != nil {
		return err
	}
	if err := deploy(SBViewUserInfo, m(func(p *sim.Proc, inv *container.Invocation) (any, error) {
		uid := inv.Args[0].AsInt()
		user, err := a.userRW.Load(p, inv.Args[0])
		if err != nil {
			return nil, err
		}
		comments, err := runQuery(p, main, qUserComments(uid))
		if err != nil {
			return nil, err
		}
		return &UserInfoPage{User: user, Comments: comments}, nil
	})); err != nil {
		return err
	}
	if err := deploy(SBPutBid, map[string]container.Method{
		// form authenticates and returns the item in one bulk call.
		"form": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			if _, err := a.authenticate(p, inv.Args[0].AsString(), inv.Args[1].AsString()); err != nil {
				return nil, err
			}
			return a.itemRW.Load(p, inv.Args[2])
		},
	}); err != nil {
		return err
	}
	if err := deploy(SBStoreBid, map[string]container.Method{
		"store": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return a.storeBid(p, inv.Args[0].AsString(), inv.Args[1].AsString(), inv.Args[2].AsInt(), inv.Args[3].AsFloat())
		},
	}); err != nil {
		return err
	}
	if err := deploy(SBPutComment, map[string]container.Method{
		"form": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			if _, err := a.authenticate(p, inv.Args[0].AsString(), inv.Args[1].AsString()); err != nil {
				return nil, err
			}
			return a.userRW.Load(p, inv.Args[2])
		},
	}); err != nil {
		return err
	}
	return deploy(SBStoreComment, map[string]container.Method{
		"store": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return a.storeComment(p, inv.Args[0].AsString(), inv.Args[1].AsString(),
				inv.Args[2].AsInt(), inv.Args[3].AsInt(), inv.Args[4].AsInt())
		},
	})
}

// storeBid authenticates, records the bid, and updates the item's bid
// summary — the write whose propagation the read-mostly pattern pays for.
func (a *App) storeBid(p *sim.Proc, nick, pass string, itemID int64, amount float64) (any, error) {
	user, err := a.authenticate(p, nick, pass)
	if err != nil {
		return nil, err
	}
	item, err := a.itemRW.Load(p, sqldb.Int(itemID))
	if err != nil {
		return nil, err
	}
	a.bidSeq++
	if err := a.bidRW.Insert(p, container.State{
		"id":       sqldb.Int(a.bidSeq),
		"user_id":  user.Get("id"),
		"item_id":  sqldb.Int(itemID),
		"qty":      sqldb.Int(1),
		"bid":      sqldb.Float(amount),
		"bid_date": sqldb.Int(int64(p.Now() / time.Millisecond)),
	}); err != nil {
		return nil, err
	}
	maxBid := item.Get("max_bid").AsFloat()
	if amount > maxBid {
		maxBid = amount
	}
	if _, err := a.itemRW.UpdateFields(p, sqldb.Int(itemID), container.State{
		"nb_of_bids": sqldb.Int(item.Get("nb_of_bids").AsInt() + 1),
		"max_bid":    sqldb.Float(maxBid),
	}); err != nil {
		return nil, err
	}
	return a.bidSeq, nil
}

// storeComment authenticates, records the comment, and updates the target
// user's rating.
func (a *App) storeComment(p *sim.Proc, nick, pass string, toUser, itemID, rating int64) (any, error) {
	from, err := a.authenticate(p, nick, pass)
	if err != nil {
		return nil, err
	}
	target, err := a.userRW.Load(p, sqldb.Int(toUser))
	if err != nil {
		return nil, err
	}
	a.commentSeq++
	if err := a.commentRW.Insert(p, container.State{
		"id":           sqldb.Int(a.commentSeq),
		"from_user":    from.Get("id"),
		"to_user":      sqldb.Int(toUser),
		"item_id":      sqldb.Int(itemID),
		"rating":       sqldb.Int(rating),
		"comment_date": sqldb.Int(int64(p.Now() / time.Millisecond)),
		"comment":      sqldb.Str("posted comment"),
	}); err != nil {
		return nil, err
	}
	if _, err := a.userRW.UpdateFields(p, sqldb.Int(toUser), container.State{
		"rating": sqldb.Int(target.Get("rating").AsInt() + rating),
	}); err != nil {
		return nil, err
	}
	return a.commentSeq, nil
}

// UserInfoPage is the User Info façade result.
type UserInfoPage struct {
	User     container.Row
	Comments []container.Row
}
