package rubis

import (
	"fmt"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/planner"
	"wadeploy/internal/sim"
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
// Façade configuration with their placement rules and edge declarations, the
// entity beans, and the Item and User beans the read-mostly pattern
// replicates. Deploy installs the entities and replicas from it and validates
// the plan it synthesizes; PlannerModel prices it. On the edges SB_ViewItem
// reads the Item replica, the browse, search and history façades read the
// query cache, and the bid and comment forms authenticate against the cached
// nickname lookup and read the Item or User replica.
var layout = &planner.Layout{
	App: "rubis",
	Components: []planner.Component{
		planner.Facade(SBBrowseCategories, container.StatelessSession, planner.EdgeWithQueryCaches,
			container.FromCache("getAll", QueryAllCategories, func([]sqldb.Value) string { return keyAllCategories() }),
			container.FromCache("forRegion", QueryRegionCategories, idKeyOf(keyRegionCategories))),
		planner.Facade(SBBrowseRegions, container.StatelessSession, planner.EdgeWithQueryCaches,
			container.FromCache("getAll", QueryAllRegions, func([]sqldb.Value) string { return keyAllRegions() })),
		planner.Facade(SBSearchByCategory, container.StatelessSession, planner.EdgeWithQueryCaches,
			container.FromCache("get", QueryItemsByCategory, idKeyOf(keyItemsByCategory))),
		planner.Facade(SBSearchByRegion, container.StatelessSession, planner.EdgeWithQueryCaches,
			container.FromCache("get", QueryItemsByCatRegion, func(args []sqldb.Value) string {
				return keyItemsByCatRegion(args[0].AsInt(), args[1].AsInt())
			})),
		planner.Facade(SBViewItem, container.StatelessSession, planner.EdgeWithEntityReplicas,
			container.FromReplicas("get", func(p *sim.Proc, m *container.EdgeMethod, inv *container.Invocation) (any, error) {
				row, err := m.Replicas[0].Get(p, inv.Args[0])
				return container.Reply(inv, row, err)
			}, BeanItem)),
		planner.Facade(SBViewBidHistory, container.StatelessSession, planner.EdgeWithEntityReplicas,
			container.FromCache("get", QueryBidHistory, idKeyOf(keyBidHistory))),
		planner.Facade(SBViewUserInfo, container.StatelessSession, planner.EdgeWithEntityReplicas,
			container.FromCache("get", QueryUserInfo, idKeyOf(keyUserInfo))),
		planner.Facade(SBPutBid, container.StatelessSession, planner.EdgeWithQueryCaches,
			container.FromReplicas("form", edgeForm, BeanItem).Reads(QueryUserByNick, nickKey)),
		planner.Facade(SBPutComment, container.StatelessSession, planner.EdgeWithQueryCaches,
			container.FromReplicas("form", edgeForm, BeanUser).Reads(QueryUserByNick, nickKey)),
		planner.Facade(SBStoreBid, container.StatelessSession, planner.EdgeNever),
		planner.Facade(SBStoreComment, container.StatelessSession, planner.EdgeNever),
		planner.Entity(BeanItem, "items", "id"),
		planner.Entity(BeanUser, "users", "id"),
		planner.Entity(BeanBid, "bids", "id"),
		planner.Entity(BeanComment, "comments", "id"),
		planner.Entity(BeanCategory, "categories", "id"),
		planner.Entity(BeanRegion, "regions", "id"),
	},
	Replicated: []string{BeanItem, BeanUser},
	// Users stay fully replicated: tiny, read-mostly, and the edge auth
	// path needs every nickname everywhere.
	Sharded: []string{BeanItem},
}

// Layout is RUBiS's component list: what it deploys under each policy.
func Layout() *planner.Layout { return layout }

// idKeyOf keys a cached query by the call's first argument, an id.
func idKeyOf(key func(id int64) string) func(args []sqldb.Value) string {
	return func(args []sqldb.Value) string { return key(args[0].AsInt()) }
}

// nickKey keys the nickname lookup by the call's first argument.
func nickKey(args []sqldb.Value) string { return keyUserByNick(args[0].AsString()) }

// edgeForm serves a bid or comment form on an edge: it authenticates
// (nickname, password) against the cached nickname lookup its method
// declares and answers the third argument's entity from the form's replica.
func edgeForm(p *sim.Proc, m *container.EdgeMethod, inv *container.Invocation) (any, error) {
	args := inv.Args
	v, err := m.Cache.Get(p, m.Key(args))
	if err != nil {
		return nil, err
	}
	rows, _ := v.(*container.Rows)
	if rows == nil || rows.Len() == 0 || rows.At(0).Get("password").AsString() != args[1].AsString() {
		return nil, fmt.Errorf("rubis: bad credentials for %s", args[0].AsString())
	}
	row, err := m.Replicas[0].Get(p, args[2])
	return container.Reply(inv, row, err)
}

// App is one deployed RUBiS instance under a specific policy.
type App struct {
	d *core.Deployment
	// serverFor routes a client group's requests the way Deploy placed the
	// web tier.
	serverFor func(clientNode string) *container.Server

	itemRW    *container.RWEntity
	userRW    *container.RWEntity
	bidRW     *container.RWEntity
	commentRW *container.RWEntity

	wiring *core.Wiring

	bidSeq     int64
	commentSeq int64

	// The reply records of the calls in flight, by type (container.Invoke).
	rows  sim.Free[container.Rows]
	row   sim.Free[container.Row]
	infos sim.Free[UserInfoPage]
	seqs  sim.Free[int64]

	costs PageCosts
}

// PageCosts maps page name to render cost.
type PageCosts map[string]container.PageCost

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
// active server, and — depending on p — the replica bundle Wire installs on
// every edge, whose edge façades are declared in the component list. The
// deployment is checked against the plan the planner synthesizes for p from
// the component list. No edge façade reads a database replica.
func Deploy(d *core.Deployment, p core.Policy) (*App, error) {
	if err := layout.Check(p); err != nil {
		return nil, fmt.Errorf("rubis: %w", err)
	}
	if err := InitSchema(d.DB); err != nil {
		return nil, err
	}
	a := &App{
		d:          d,
		serverFor:  func(node string) *container.Server { return d.ServerFor(node, p) },
		bidSeq:     int64(NumItems * SeedBidsPerItem),
		commentSeq: int64(SeedComments),
		costs:      DefaultPageCosts(),
	}
	if err := layout.DeployEntities(d); err != nil {
		return nil, fmt.Errorf("rubis: %w", err)
	}
	a.itemRW, a.userRW, a.bidRW, a.commentRW = d.RW(BeanItem), d.RW(BeanUser), d.RW(BeanBid), d.RW(BeanComment)
	if err := a.deployMainFacades(); err != nil {
		return nil, err
	}
	for _, srv := range a.d.WebServers(p) {
		a.registerPages(srv)
	}
	if p.EntityReplicas {
		if _, err := a.Wire(p, d.Edges...); err != nil {
			return nil, err
		}
	}
	if err := layout.Plan(p, d.Main.Name(), d.EdgeNames()).Validate(); err != nil {
		return nil, fmt.Errorf("rubis: %w", err)
	}
	return a, nil
}

// Wiring exposes the auto-wired replicas and caches.
func (a *App) Wiring() *core.Wiring { return a.wiring }

// Bids and Comments report committed write counts.
func (a *App) Bids() int64     { return a.bidSeq - int64(NumItems*SeedBidsPerItem) }
func (a *App) Comments() int64 { return a.commentSeq - int64(SeedComments) }

// runQuery executes q with full cost accounting on srv.
func runQuery(p *sim.Proc, srv *container.Server, q query) (container.Rows, error) {
	res, err := srv.SQL(p, q.sql, q.args()...)
	return container.RowsOf(res), err
}

// runDirect executes q against the database with no simulated cost: used at
// deploy time (preloading) and inside push recomputation, where the real
// system computes results on the main server and ships them in the bulk
// push message.
func runDirect(db *sqldb.DB, q query) (container.Rows, error) {
	res, err := db.Exec(q.sql, q.args()...)
	return container.RowsOf(res), err
}

// authenticate verifies credentials on the main server (the SignOn step that
// precedes every RUBiS write activity).
func (a *App) authenticate(p *sim.Proc, nick, pass string) (container.Row, error) {
	rows, err := runQuery(p, a.d.Main, qUserByNick(nick))
	if err != nil {
		return container.Row{}, err
	}
	if rows.Len() == 0 || rows.At(0).Get("password").AsString() != pass {
		return container.Row{}, fmt.Errorf("rubis: bad credentials for %s", nick)
	}
	return rows.At(0), nil
}

// deployMainFacades installs the central session façades.
func (a *App) deployMainFacades() error {
	main := a.d.Main
	m := func(fn func(p *sim.Proc, inv *container.Invocation) (any, error)) map[string]container.Method {
		return map[string]container.Method{"get": fn}
	}
	// answerRows answers inv with q's rows.
	answerRows := func(p *sim.Proc, inv *container.Invocation, q query) (any, error) {
		res, err := runQuery(p, main, q)
		return container.Reply(inv, res, err)
	}
	for _, f := range []struct {
		name    string
		methods map[string]container.Method
	}{
		{SBBrowseCategories, map[string]container.Method{
			"getAll": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				return answerRows(p, inv, qAllCategories())
			},
			"forRegion": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				return answerRows(p, inv, qRegionCategories(inv.Args[0].AsInt()))
			},
		}},
		{SBBrowseRegions, map[string]container.Method{
			"getAll": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				return answerRows(p, inv, qAllRegions())
			},
		}},
		{SBSearchByCategory, m(func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return answerRows(p, inv, qItemsByCategory(inv.Args[0].AsInt()))
		})},
		{SBSearchByRegion, m(func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return answerRows(p, inv, qItemsByCatRegion(inv.Args[0].AsInt(), inv.Args[1].AsInt()))
		})},
		{SBViewItem, map[string]container.Method{
			"get": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				row, err := a.itemRW.Load(p, inv.Args[0])
				return container.Reply(inv, row, err)
			},
			// fetchState feeds read-only replica refreshes.
			"fetchState": a.d.FetchState,
		}},
		{SBViewBidHistory, m(func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return answerRows(p, inv, qBidHistory(inv.Args[0].AsInt()))
		})},
		{SBViewUserInfo, m(func(p *sim.Proc, inv *container.Invocation) (any, error) {
			uid := inv.Args[0].AsInt()
			user, err := a.userRW.Load(p, inv.Args[0])
			if err != nil {
				return nil, err
			}
			comments, err := runQuery(p, main, qUserComments(uid))
			return container.Reply(inv, UserInfoPage{User: user, Comments: comments}, err)
		})},
		{SBPutBid, map[string]container.Method{
			// form authenticates and returns the item in one bulk call.
			"form": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				if _, err := a.authenticate(p, inv.Args[0].AsString(), inv.Args[1].AsString()); err != nil {
					return nil, err
				}
				row, err := a.itemRW.Load(p, inv.Args[2])
				return container.Reply(inv, row, err)
			},
		}},
		{SBStoreBid, map[string]container.Method{
			"store": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				seq, err := a.storeBid(p, inv.Args[0].AsString(), inv.Args[1].AsString(), inv.Args[2].AsInt(), inv.Args[3].AsFloat())
				return container.Reply(inv, seq, err)
			},
		}},
		{SBPutComment, map[string]container.Method{
			"form": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				if _, err := a.authenticate(p, inv.Args[0].AsString(), inv.Args[1].AsString()); err != nil {
					return nil, err
				}
				row, err := a.userRW.Load(p, inv.Args[2])
				return container.Reply(inv, row, err)
			},
		}},
		{SBStoreComment, map[string]container.Method{
			"store": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				seq, err := a.storeComment(p, inv.Args[0].AsString(), inv.Args[1].AsString(),
					inv.Args[2].AsInt(), inv.Args[3].AsInt(), inv.Args[4].AsInt())
				return container.Reply(inv, seq, err)
			},
		}},
	} {
		if _, err := container.DeployStateless(main, f.name, f.methods); err != nil {
			return fmt.Errorf("rubis: %w", err)
		}
	}
	return nil
}

// storeBid authenticates, records the bid, and updates the item's bid
// summary — the write whose propagation the read-mostly pattern pays for.
func (a *App) storeBid(p *sim.Proc, nick, pass string, itemID int64, amount float64) (int64, error) {
	user, err := a.authenticate(p, nick, pass)
	if err != nil {
		return 0, err
	}
	item, err := a.itemRW.Load(p, sqldb.Int(itemID))
	if err != nil {
		return 0, err
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
		return 0, err
	}
	maxBid := item.Get("max_bid").AsFloat()
	if amount > maxBid {
		maxBid = amount
	}
	if _, err := a.itemRW.UpdateFields(p, sqldb.Int(itemID), container.State{
		"nb_of_bids": sqldb.Int(item.Get("nb_of_bids").AsInt() + 1),
		"max_bid":    sqldb.Float(maxBid),
	}); err != nil {
		return 0, err
	}
	return a.bidSeq, nil
}

// storeComment authenticates, records the comment, and updates the target
// user's rating.
func (a *App) storeComment(p *sim.Proc, nick, pass string, toUser, itemID, rating int64) (int64, error) {
	from, err := a.authenticate(p, nick, pass)
	if err != nil {
		return 0, err
	}
	target, err := a.userRW.Load(p, sqldb.Int(toUser))
	if err != nil {
		return 0, err
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
		return 0, err
	}
	if _, err := a.userRW.UpdateFields(p, sqldb.Int(toUser), container.State{
		"rating": sqldb.Int(target.Get("rating").AsInt() + rating),
	}); err != nil {
		return 0, err
	}
	return a.commentSeq, nil
}

// UserInfoPage is the User Info façade result.
type UserInfoPage struct {
	User     container.Row
	Comments container.Rows
}
