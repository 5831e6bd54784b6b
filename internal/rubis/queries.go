package rubis

import (
	"strconv"

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

// Cache-key helpers.
func keyAllCategories() string { return QueryAllCategories + ":" }
func keyAllRegions() string    { return QueryAllRegions + ":" }
func keyRegionCategories(r int64) string {
	return QueryRegionCategories + ":" + strconv.FormatInt(r, 10)
}
func keyItemsByCategory(c int64) string { return QueryItemsByCategory + ":" + strconv.FormatInt(c, 10) }
func keyItemsByCatRegion(c, r int64) string {
	if c >= 1 && c <= NumCategories && r >= 1 && r <= NumRegions {
		return catRegionKeys[c-1][r-1]
	}
	return QueryItemsByCatRegion + ":" + strconv.FormatInt(c, 10) + "/" + strconv.FormatInt(r, 10)
}
func keyBidHistory(item int64) string  { return QueryBidHistory + ":" + strconv.FormatInt(item, 10) }
func keyUserInfo(u int64) string       { return QueryUserInfo + ":" + strconv.FormatInt(u, 10) }
func keyUserByNick(nick string) string { return QueryUserByNick + ":" + nick }

// query pairs SQL text with bound parameters.
type query struct {
	sql  string
	args []sqldb.Value
}

func qAllCategories() query {
	return query{sql: `SELECT * FROM categories ORDER BY id`}
}

func qAllRegions() query {
	return query{sql: `SELECT * FROM regions ORDER BY id`}
}

// qRegionCategories lists the categories that currently have items for sale
// in a region (the Region page).
func qRegionCategories(region int64) query {
	return query{
		sql: `SELECT DISTINCT c.id, c.name FROM categories c JOIN items i ON i.category = c.id
			WHERE i.region = ? ORDER BY c.id`,
		args: []sqldb.Value{sqldb.Int(region)},
	}
}

func qItemsByCategory(cat int64) query {
	return query{
		sql: `SELECT id, name, initial_price, max_bid, nb_of_bids, end_date FROM items
			WHERE category = ? ORDER BY end_date LIMIT 25`,
		args: []sqldb.Value{sqldb.Int(cat)},
	}
}

func qItemsByCatRegion(cat, region int64) query {
	return query{
		sql: `SELECT id, name, initial_price, max_bid, nb_of_bids, end_date FROM items
			WHERE category = ? AND region = ? ORDER BY end_date LIMIT 25`,
		args: []sqldb.Value{sqldb.Int(cat), sqldb.Int(region)},
	}
}

// qBidHistory joins bids with bidder nicknames (the Bids page).
func qBidHistory(item int64) query {
	return query{
		sql: `SELECT u.nickname, b.bid, b.qty, b.bid_date FROM bids b JOIN users u ON u.id = b.user_id
			WHERE b.item_id = ? ORDER BY b.bid DESC`,
		args: []sqldb.Value{sqldb.Int(item)},
	}
}

// qUserComments joins a user's received comments with commenter nicknames
// (the User Info page).
func qUserComments(user int64) query {
	return query{
		sql: `SELECT c.rating, c.comment_date, c.comment, u.nickname FROM comments c
			JOIN users u ON u.id = c.from_user WHERE c.to_user = ? ORDER BY c.comment_date DESC`,
		args: []sqldb.Value{sqldb.Int(user)},
	}
}

// qUser reads one user row by id.
func qUser(id int64) query {
	return query{sql: `SELECT * FROM users WHERE id = ?`, args: []sqldb.Value{sqldb.Int(id)}}
}

// qUserByNick is the authentication finder (nickname is uniquely indexed).
func qUserByNick(nick string) query {
	return query{
		sql:  `SELECT * FROM users WHERE nickname = ?`,
		args: []sqldb.Value{sqldb.Str(nick)},
	}
}
