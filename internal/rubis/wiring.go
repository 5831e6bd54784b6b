package rubis

import (
	"fmt"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// Wire installs p's replica bundle on exactly the servers on, warm with the
// tables' current contents, and the edge façades p places on every edge. The
// bundle is p's extended deployment descriptor: read-only BMP versions of the
// component list's replicated beans with push refresh (Section 4.3), all
// session queries cached with push-based recomputation when p has query
// caches (Section 4.4), sync vs async propagation and the edge façades.
// Deploy wires every edge.
func (a *App) Wire(p core.Policy, on ...*container.Server) (*core.Wiring, error) {
	if !p.EntityReplicas {
		return nil, fmt.Errorf("rubis: %w", p.Unsupported("it has no entity replicas to wire"))
	}
	ext := layout.Descriptor(p, UpdateTopic)
	if p.QueryCaches {
		ext.CachedQueries = a.cachedQueries()
	}
	w, err := core.AutoWire(a.d, ext, core.WireOptions{
		FetchFor: func(server *container.Server, rwBean string) container.FetchFunc {
			return container.FetchFrom(server, simnet.NodeMain, SBViewItem, "fetchState", sqldb.Str(rwBean))
		},
	}, on...)
	if err != nil {
		return nil, fmt.Errorf("rubis: %w", err)
	}
	a.wiring = w
	if p.QueryCaches {
		if err := a.seedQueries(); err != nil {
			return nil, err
		}
	}
	if err := w.Preload(); err != nil {
		return nil, fmt.Errorf("rubis: %w", err)
	}
	return w, nil
}

// cachedQueries declares the session queries the edges cache, each result as
// the *container.Rows or *UserInfoPage main's façade answers. RUBiS uses the
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
		return func(c container.Commit) (any, error) {
			res, err := runDirect(db, q(c))
			return &res, err
		}
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
				if next, ok := a.maintainHistory(*prev.(*container.Rows), c, "user_id", "bid", &bidHistoryCols); ok {
					return &next, true
				}
				return nil, false
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
					if users.Len() == 0 {
						return nil, fmt.Errorf("rubis: comment for user %d: %w", id, container.ErrNoSuchEntity)
					}
					user = users.At(0)
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
				return oneRow(c.State), true
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
func (a *App) maintainHistory(rows container.Rows, c container.Commit, author, by string, cols *[]string) (container.Rows, bool) {
	if !c.Prev.IsZero() {
		return container.Rows{}, false
	}
	v, ok := a.wiring.QueryViews().Result(keyUserInfo(c.State.Get(author).AsInt()))
	if !ok {
		return container.Rows{}, false
	}
	vals := make([]sqldb.Value, len(*cols))
	for i, col := range *cols {
		if vals[i] = c.State.Get(col); col == "nickname" {
			vals[i] = v.(*UserInfoPage).User.Get(col)
		}
	}
	row := container.RowOf(cols, vals)
	at := rows.Len()
	for i := range rows.Len() {
		if sqldb.Compare(rows.At(i).Get(by), row.Get(by)) < 0 {
			at = i
			break
		}
	}
	return rows.Insert(at, row), true
}

// The columns the listings project, in order: the column list every row of a
// maintained listing shares, so it equals a fresh execution's result.
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
	rows, ok := prev.(*container.Rows)
	if !ok || c.Touches("category", "region", "end_date") {
		return nil, false
	}
	for i := range rows.Len() {
		if sqldb.Compare(rows.At(i).Get("id"), c.PK) != 0 {
			continue
		}
		vals := make([]sqldb.Value, len(itemListCols))
		for j, col := range itemListCols {
			vals[j] = c.State.Get(col)
		}
		next := rows.Replace(i, container.RowOf(&itemListCols, vals))
		return &next, true
	}
	return nil, false
}

// oneRow returns a one-row result holding r.
func oneRow(r container.Row) *container.Rows {
	rows := container.Rows{}.Insert(0, r)
	return &rows
}

// seedQueries seeds the main server's views with current database contents;
// Preload and each cut-over copy them into the edge query caches.
func (a *App) seedQueries() error {
	views := a.wiring.QueryViews()
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
	userRows, err := runDirect(a.d.DB, newQuery(`SELECT * FROM users`))
	if err != nil {
		return fmt.Errorf("rubis preload users: %w", err)
	}
	for _, e := range entries {
		rows, err := runDirect(a.d.DB, e.q)
		if err != nil {
			return fmt.Errorf("rubis preload %s: %w", e.key, err)
		}
		views.Seed(e.key, &rows)
	}
	for i := range userRows.Len() {
		u := userRows.At(i)
		id := u.Get("id").AsInt()
		comments, err := runDirect(a.d.DB, qUserComments(id))
		if err != nil {
			return fmt.Errorf("rubis preload user info: %w", err)
		}
		views.Seed(keyUserInfo(id), &UserInfoPage{User: u, Comments: comments})
		views.Seed(keyUserByNick(u.Get("nickname").AsString()), oneRow(u))
	}
	return nil
}
