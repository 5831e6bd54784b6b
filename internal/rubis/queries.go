package rubis

import (
	"strconv"
	"strings"

	"wadeploy/internal/sqldb"
)

// Cached-query name prefixes (Section 4.4: RUBiS caches every query its
// browser and bidder sessions execute).
const (
	QueryAllCategories    = "allCategories"
	QueryAllRegions       = "allRegions"
	QueryRegionCategories = "regionCategories"
	QueryItemsByCategory  = "itemsByCategory"
	QueryItemsByCatRegion = "itemsByCatRegion"
	QueryBidHistory       = "bidHistory"
	QueryUserInfo         = "userInfo"
	QueryUserByNick       = "userByNick"
)

// Cache-key helpers. Every id a page or a commit names has its key interned
// at init (ids.go); an id outside the tables, such as an item inserted
// after the seed, gets its key formatted.
func keyAllCategories() string           { return QueryAllCategories + ":" }
func keyAllRegions() string              { return QueryAllRegions + ":" }
func keyRegionCategories(r int64) string { return idKey(regionCatKeys[:], QueryRegionCategories, r) }
func keyItemsByCategory(c int64) string  { return idKey(itemsByCatKeys[:], QueryItemsByCategory, c) }
func keyItemsByCatRegion(c, r int64) string {
	if c >= 1 && c <= NumCategories && r >= 1 && r <= NumRegions {
		return catRegionKeys[c-1][r-1]
	}
	return QueryItemsByCatRegion + ":" + strconv.FormatInt(c, 10) + "/" + strconv.FormatInt(r, 10)
}
func keyBidHistory(item int64) string { return idKey(bidHistoryKeys[:], QueryBidHistory, item) }
func keyUserInfo(u int64) string      { return idKey(userInfoKeys[:], QueryUserInfo, u) }
func keyUserByNick(nick string) string {
	digits, _ := strings.CutPrefix(nick, "bidder")
	if u, err := strconv.Atoi(digits); err == nil && u >= 1 && u <= NumUsers && nicknames[u-1] == nick {
		return userByNickKeys[u-1]
	}
	return QueryUserByNick + ":" + nick
}

// idKey returns keys[id-1], the interned key of the one-based id, or the
// key formatted from prefix when id is outside the table.
func idKey(keys []string, prefix string, id int64) string {
	if id >= 1 && id <= int64(len(keys)) {
		return keys[id-1]
	}
	return prefix + ":" + strconv.FormatInt(id, 10)
}

// query pairs SQL text with its bound parameters. No RUBiS query binds more
// than two, so they live in the query itself and building one allocates
// nothing.
type query struct {
	sql  string
	n    int
	room [2]sqldb.Value
}

// newQuery returns sql bound to args.
func newQuery(sql string, args ...sqldb.Value) query {
	q := query{sql: sql, n: len(args)}
	if copy(q.room[:], args) < q.n {
		panic("rubis: a query binds more than two parameters")
	}
	return q
}

// args returns the bound parameters, held in q.
func (q *query) args() []sqldb.Value { return q.room[:q.n] }

func qAllCategories() query {
	return newQuery(`SELECT * FROM categories ORDER BY id`)
}

func qAllRegions() query {
	return newQuery(`SELECT * FROM regions ORDER BY id`)
}

// qRegionCategories lists the categories that currently have items for sale
// in a region (the Region page).
func qRegionCategories(region int64) query {
	return newQuery(`SELECT DISTINCT c.id, c.name FROM categories c JOIN items i ON i.category = c.id
			WHERE i.region = ? ORDER BY c.id`,
		sqldb.Int(region))
}

func qItemsByCategory(cat int64) query {
	return newQuery(`SELECT id, name, initial_price, max_bid, nb_of_bids, end_date FROM items
			WHERE category = ? ORDER BY end_date LIMIT 25`,
		sqldb.Int(cat))
}

func qItemsByCatRegion(cat, region int64) query {
	return newQuery(`SELECT id, name, initial_price, max_bid, nb_of_bids, end_date FROM items
			WHERE category = ? AND region = ? ORDER BY end_date LIMIT 25`,
		sqldb.Int(cat), sqldb.Int(region))
}

// qBidHistory joins bids with bidder nicknames (the Bids page).
func qBidHistory(item int64) query {
	return newQuery(`SELECT u.nickname, b.bid, b.qty, b.bid_date FROM bids b JOIN users u ON u.id = b.user_id
			WHERE b.item_id = ? ORDER BY b.bid DESC`,
		sqldb.Int(item))
}

// qUserComments joins a user's received comments with commenter nicknames
// (the User Info page).
func qUserComments(user int64) query {
	return newQuery(`SELECT c.rating, c.comment_date, c.comment, u.nickname FROM comments c
			JOIN users u ON u.id = c.from_user WHERE c.to_user = ? ORDER BY c.comment_date DESC`,
		sqldb.Int(user))
}

// qUser reads one user row by id.
func qUser(id int64) query {
	return newQuery(`SELECT * FROM users WHERE id = ?`, sqldb.Int(id))
}

// qUserByNick is the authentication finder (nickname is uniquely indexed).
func qUserByNick(nick string) query {
	return newQuery(`SELECT * FROM users WHERE nickname = ?`, sqldb.Str(nick))
}
