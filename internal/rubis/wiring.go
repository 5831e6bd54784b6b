package rubis

import (
	"fmt"
	"slices"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// wireReplicas applies the extended deployment descriptor: read-only BMP
// versions of the component list's replicated beans with push refresh
// (Section 4.3), all session queries cached with push-based recomputation
// when the policy has query caches (Section 4.4), and sync vs async
// propagation.
func (a *App) wireReplicas() error {
	update := container.SyncUpdate
	if a.policy.AsyncUpdates {
		update = container.AsyncUpdate
	}
	ext := &container.ExtendedDescriptor{Topic: UpdateTopic}
	for _, bean := range layout.Replicated {
		spec := container.ReplicaSpec{Bean: bean, Update: update}
		if bean == BeanItem {
			// Only Items shard; Users stay fully replicated (tiny,
			// read-mostly, and the edge auth path needs every nickname
			// everywhere).
			spec.Partition = a.policy.Partition
		}
		ext.Replicas = append(ext.Replicas, spec)
	}
	opts := core.WireOptions{
		PushBytes: replicaPushBytes,
		FetchFor: func(server *container.Server, rwBean string) container.FetchFunc {
			return container.FetchFrom(server, simnet.NodeMain, SBViewItem, "fetchState", sqldb.Str(rwBean))
		},
	}
	if a.policy.QueryCaches {
		ext.CachedQueries = a.cachedQueries()
	}
	w, err := core.AutoWire(a.d, ext, opts)
	if err != nil {
		return fmt.Errorf("rubis: %w", err)
	}
	a.wiring = w
	return a.preload()
}

// cachedQueries declares the session queries the edges cache. RUBiS uses the
// push-based query update mechanism: every query a write can change has a
// view, so the main server (co-located with the database) computes the
// fresh result once per commit and the bulk push installs it — edge readers
// are never penalized. Every steady-state refresh is maintained without SQL;
// the queries are re-executed for inserted items, moves, rows beyond a
// listing's LIMIT and keys that were never preloaded.
func (a *App) cachedQueries() []container.CachedQuerySpec {
	db := a.d.DB
	// rows adapts a query builder to a view's Query.
	rows := func(q func(c container.Commit) query) func(c container.Commit) (any, error) {
		return func(c container.Commit) (any, error) { return runDirect(db, q(c)) }
	}
	cat := func(c container.Commit) int64 { return c.State.Get("category").AsInt() }
	region := func(c container.Commit) int64 { return c.State.Get("region").AsInt() }
	// The two history queries change when a Bid or a Comment is inserted —
	// beans with no replicas, so the hook costs no WAN traffic — and reach
	// the edges with the Item or User commit that follows in the same store
	// transaction. owner names the item (user) either commit belongs to.
	owner := func(child, fk string) func(c container.Commit) int64 {
		return func(c container.Commit) int64 {
			if c.Bean == child {
				return c.State.Get(fk).AsInt()
			}
			return c.PK.AsInt()
		}
	}
	bidItem, commentUser := owner(BeanBid, "item_id"), owner(BeanComment, "to_user")
	return []container.CachedQuerySpec{
		{Name: QueryAllCategories},
		{Name: QueryAllRegions},
		{Name: QueryRegionCategories, InvalidatedBy: []string{BeanItem}, View: &container.QueryView{
			// Only an item entering or leaving a (region, category) pair
			// changes the region's category list.
			Key: func(c container.Commit) string {
				if !c.Touches("category", "region") {
					return ""
				}
				return keyRegionCategories(region(c))
			},
			Query: rows(func(c container.Commit) query { return qRegionCategories(region(c)) }),
		}},
		{Name: QueryItemsByCategory, InvalidatedBy: []string{BeanItem}, View: &container.QueryView{
			Key:      func(c container.Commit) string { return keyItemsByCategory(cat(c)) },
			Query:    rows(func(c container.Commit) query { return qItemsByCategory(cat(c)) }),
			Maintain: maintainItemList,
		}},
		{Name: QueryItemsByCatRegion, InvalidatedBy: []string{BeanItem}, View: &container.QueryView{
			Key:      func(c container.Commit) string { return keyItemsByCatRegion(cat(c), region(c)) },
			Query:    rows(func(c container.Commit) query { return qItemsByCatRegion(cat(c), region(c)) }),
			Maintain: maintainItemList,
		}},
		{Name: QueryBidHistory, InvalidatedBy: []string{BeanBid, BeanItem}, View: &container.QueryView{
			Key:   func(c container.Commit) string { return keyBidHistory(bidItem(c)) },
			Query: rows(func(c container.Commit) query { return qBidHistory(bidItem(c)) }),
			Maintain: func(prev any, c container.Commit) (any, bool) {
				if c.Bean == BeanItem {
					return prev, true // the Bid insert refreshed it; this commit ships it
				}
				next, ok := a.maintainHistory(prev.([]container.Row), c, "user_id", "bid", &bidHistoryCols)
				return next, ok
			},
		}},
		{Name: QueryUserInfo, InvalidatedBy: []string{BeanComment, BeanUser}, View: &container.QueryView{
			Key: func(c container.Commit) string { return keyUserInfo(commentUser(c)) },
			Query: func(c container.Commit) (any, error) {
				id := commentUser(c)
				user := c.State
				if c.Bean == BeanComment {
					users, err := runDirect(db, qUser(id))
					if err != nil {
						return nil, err
					}
					if len(users) == 0 {
						return nil, fmt.Errorf("rubis: comment for user %d: %w", id, container.ErrNoSuchEntity)
					}
					user = users[0]
				}
				comments, err := runDirect(db, qUserComments(id))
				if err != nil {
					return nil, err
				}
				return &UserInfoPage{User: user, Comments: comments}, nil
			},
			Maintain: func(prev any, c container.Commit) (any, bool) {
				page := prev.(*UserInfoPage)
				if c.Bean == BeanUser {
					return &UserInfoPage{User: c.State, Comments: page.Comments}, true
				}
				comments, ok := a.maintainHistory(page.Comments, c, "from_user", "comment_date", &commentCols)
				if !ok {
					return nil, false
				}
				return &UserInfoPage{User: page.User, Comments: comments}, true
			},
		}},
		{Name: QueryUserByNick, InvalidatedBy: []string{BeanUser}, View: &container.QueryView{
			Key: func(c container.Commit) string { return keyUserByNick(c.State.Get("nickname").AsString()) },
			Query: rows(func(c container.Commit) query {
				return qUserByNick(c.State.Get("nickname").AsString())
			}),
			// The nickname is unique, so the result is the committed row.
			Maintain: func(_ any, c container.Commit) (any, bool) {
				return []container.Row{c.State}, true
			},
		}},
	}
}

// maintainHistory refreshes one of the two history listings — an item's bids,
// highest first, or a user's comments, newest first, each row joined with its
// author's nickname — after the insert of a Bid or Comment. author is the
// inserted row's foreign key to its author, by the listing's ORDER BY ... DESC
// column and cols its projection, in order. The nickname comes from the
// author's userInfo view instead of the join, the other columns from the
// inserted row, and the new row goes behind every row that does not sort
// below it, where the stable sort puts the latest insert.
func (a *App) maintainHistory(rows []container.Row, c container.Commit, author, by string, cols *[]string) ([]container.Row, bool) {
	if !c.Prev.IsZero() || c.Deleted {
		return nil, false
	}
	v, ok := a.wiring.QueryViews().Result(keyUserInfo(c.State.Get(author).AsInt()))
	if !ok {
		return nil, false
	}
	vals := make([]sqldb.Value, len(*cols))
	for i, col := range *cols {
		if vals[i] = c.State.Get(col); col == "nickname" {
			vals[i] = v.(*UserInfoPage).User.Get(col)
		}
	}
	row := container.RowOf(cols, vals)
	at := len(rows)
	for i, r := range rows {
		if sqldb.Compare(r.Get(by), row.Get(by)) < 0 {
			at = i
			break
		}
	}
	next := make([]container.Row, 0, len(rows)+1)
	next = append(next, rows[:at]...)
	next = append(next, row)
	return append(next, rows[at:]...), true
}

// The columns the listings project, in order: what a maintained row carries,
// so it equals the row a fresh execution returns.
var (
	bidHistoryCols = []string{"nickname", "bid", "qty", "bid_date"}
	commentCols    = []string{"rating", "comment_date", "comment", "nickname"}
	itemListCols   = []string{"id", "name", "initial_price", "max_bid", "nb_of_bids", "end_date"}
)

// maintainItemList refreshes an item listing (items of one category, or of
// one category and region, ordered by end_date) after an Item commit: when
// the commit wrote no filter or order column and the item is on the page,
// the page is the previous one with that row replaced. Inserts, moves and
// items beyond the LIMIT re-execute the query.
func maintainItemList(prev any, c container.Commit) (any, bool) {
	rows, ok := prev.([]container.Row)
	if !ok || c.Touches("category", "region", "end_date") {
		return nil, false
	}
	for i, row := range rows {
		if sqldb.Compare(row.Get("id"), c.PK) != 0 {
			continue
		}
		vals := make([]sqldb.Value, len(itemListCols))
		for j, col := range itemListCols {
			vals[j] = c.State.Get(col)
		}
		next := slices.Clone(rows)
		next[i] = container.RowOf(&itemListCols, vals)
		return next, true
	}
	return nil, false
}

// preload warm-deploys the read-only beans (and, with query caches, the
// edge query caches) with current database contents.
func (a *App) preload() error {
	if err := a.wiring.Preload(); err != nil {
		return fmt.Errorf("rubis: %w", err)
	}
	if !a.policy.QueryCaches {
		return nil
	}
	type entry struct {
		key string
		q   query
	}
	entries := []entry{
		{keyAllCategories(), qAllCategories()},
		{keyAllRegions(), qAllRegions()},
	}
	for r := int64(1); r <= NumRegions; r++ {
		entries = append(entries, entry{keyRegionCategories(r), qRegionCategories(r)})
	}
	for c := int64(1); c <= NumCategories; c++ {
		entries = append(entries, entry{keyItemsByCategory(c), qItemsByCategory(c)})
		for r := int64(1); r <= NumRegions; r++ {
			entries = append(entries, entry{keyItemsByCatRegion(c, r), qItemsByCatRegion(c, r)})
		}
	}
	for i := int64(1); i <= NumItems; i++ {
		entries = append(entries, entry{keyBidHistory(i), qBidHistory(i)})
	}
	userRows, err := runDirect(a.d.DB, query{sql: `SELECT * FROM users`})
	if err != nil {
		return fmt.Errorf("rubis preload users: %w", err)
	}
	for _, e := range entries {
		rows, err := runDirect(a.d.DB, e.q)
		if err != nil {
			return fmt.Errorf("rubis preload %s: %w", e.key, err)
		}
		a.wiring.SeedQuery(e.key, rows)
	}
	for _, u := range userRows {
		id := u.Get("id").AsInt()
		comments, err := runDirect(a.d.DB, qUserComments(id))
		if err != nil {
			return fmt.Errorf("rubis preload user info: %w", err)
		}
		a.wiring.SeedQuery(keyUserInfo(id), &UserInfoPage{User: u, Comments: comments})
		a.wiring.SeedQuery(keyUserByNick(u.Get("nickname").AsString()), []container.Row{u})
	}
	return nil
}

// deployEdgeFacades installs the edge session façades: SB_ViewItem backed by
// the read-only beans, plus cache-backed browse, search, history and form
// façades when the policy has query caches.
func (a *App) deployEdgeFacades() error {
	for _, edge := range a.d.Edges {
		edge := edge
		itemRO := a.wiring.Replica(edge.Name(), BeanItem)
		userRO := a.wiring.Replica(edge.Name(), BeanUser)
		delegate := func(p *sim.Proc, bean, method string, args ...sqldb.Value) (any, error) {
			stub, err := edge.StubFor(p, simnet.NodeMain, bean)
			if err != nil {
				return nil, err
			}
			return stub.Invoke(p, method, args...)
		}
		cache := func() *container.QueryCache { return a.wiring.Cache(edge.Name()) }
		cachedOrDelegate := func(p *sim.Proc, key, bean, method string, args ...sqldb.Value) (any, error) {
			if a.policy.QueryCaches {
				return cache().Get(p, key)
			}
			return delegate(p, bean, method, args...)
		}
		deploy := func(name string, methods map[string]container.Method) error {
			if _, err := container.DeployStateless(edge, name, methods); err != nil {
				return fmt.Errorf("rubis: %w", err)
			}
			return nil
		}

		// SB_ViewItem: read-only Item bean, always local here.
		if err := deploy(SBViewItem, map[string]container.Method{
			"get": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				return itemRO.Get(p, inv.Args[0])
			},
		}); err != nil {
			return err
		}
		// SB_ViewBidHistory / SB_ViewUserInfo: aggregate queries — remote
		// until the query cache covers them.
		if err := deploy(SBViewBidHistory, map[string]container.Method{
			"get": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				return cachedOrDelegate(p, keyBidHistory(inv.Args[0].AsInt()), SBViewBidHistory, "get", inv.Args[0])
			},
		}); err != nil {
			return err
		}
		if err := deploy(SBViewUserInfo, map[string]container.Method{
			"get": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				return cachedOrDelegate(p, keyUserInfo(inv.Args[0].AsInt()), SBViewUserInfo, "get", inv.Args[0])
			},
		}); err != nil {
			return err
		}
		if !a.policy.QueryCaches {
			continue
		}
		// With query caches, every read-only façade runs at the edge.
		edgeAuth := func(p *sim.Proc, nick, pass string) (container.Row, error) {
			v, err := cache().Get(p, keyUserByNick(nick))
			if err != nil {
				return container.Row{}, err
			}
			rows, _ := v.([]container.Row)
			if len(rows) == 0 || rows[0].Get("password").AsString() != pass {
				return container.Row{}, fmt.Errorf("rubis: bad credentials for %s", nick)
			}
			return rows[0], nil
		}
		if err := deploy(SBBrowseCategories, map[string]container.Method{
			"getAll": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				return cache().Get(p, keyAllCategories())
			},
			"forRegion": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				return cache().Get(p, keyRegionCategories(inv.Args[0].AsInt()))
			},
		}); err != nil {
			return err
		}
		if err := deploy(SBBrowseRegions, map[string]container.Method{
			"getAll": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				return cache().Get(p, keyAllRegions())
			},
		}); err != nil {
			return err
		}
		if err := deploy(SBSearchByCategory, map[string]container.Method{
			"get": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				return cache().Get(p, keyItemsByCategory(inv.Args[0].AsInt()))
			},
		}); err != nil {
			return err
		}
		if err := deploy(SBSearchByRegion, map[string]container.Method{
			"get": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				return cache().Get(p, keyItemsByCatRegion(inv.Args[0].AsInt(), inv.Args[1].AsInt()))
			},
		}); err != nil {
			return err
		}
		if err := deploy(SBPutBid, map[string]container.Method{
			"form": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				if _, err := edgeAuth(p, inv.Args[0].AsString(), inv.Args[1].AsString()); err != nil {
					return nil, err
				}
				return itemRO.Get(p, inv.Args[2])
			},
		}); err != nil {
			return err
		}
		if err := deploy(SBPutComment, map[string]container.Method{
			"form": func(p *sim.Proc, inv *container.Invocation) (any, error) {
				if _, err := edgeAuth(p, inv.Args[0].AsString(), inv.Args[1].AsString()); err != nil {
					return nil, err
				}
				return userRO.Get(p, inv.Args[2])
			},
		}); err != nil {
			return err
		}
	}
	return nil
}
