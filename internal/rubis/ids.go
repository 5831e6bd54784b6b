package rubis

import (
	"fmt"
	"strconv"
)

// Precomputed string tables. RUBiS request parameters are small integers
// (item/user ids up to 400, regions and categories up to 20, five ratings)
// and one of 500 possible bid amounts, so every parameter string the
// generators can emit is interned at package init and the hot path performs
// table lookups instead of strconv formatting.
var (
	smallInts [NumItems + 1]string // "0".."400": items, users, sellers, regions, categories
	ratings   [5]string            // "1".."5"
	bidStrs   [500]string          // "5.00".."504.00"
	nicknames [NumUsers]string
	userPws   [NumUsers]string
	// Query-cache keys by id (queries.go): one is built on every cached
	// read and every view refresh.
	regionCatKeys  [NumRegions]string
	itemsByCatKeys [NumCategories]string
	catRegionKeys  [NumCategories][NumRegions]string
	bidHistoryKeys [NumItems]string
	userInfoKeys   [NumUsers]string
	userByNickKeys [NumUsers]string // by zero-based user
)

func init() {
	for i := range smallInts {
		smallInts[i] = strconv.Itoa(i)
	}
	for i := range ratings {
		ratings[i] = strconv.Itoa(i + 1)
	}
	for i := range bidStrs {
		bidStrs[i] = strconv.FormatFloat(5.0+float64(i), 'f', 2, 64)
	}
	for u := range nicknames {
		nicknames[u] = fmt.Sprintf("bidder%03d", u+1)
		userPws[u] = "pw-" + nicknames[u]
	}
	fill := func(keys []string, prefix string) {
		for i := range keys {
			keys[i] = prefix + ":" + smallInts[i+1]
		}
	}
	fill(regionCatKeys[:], QueryRegionCategories)
	fill(itemsByCatKeys[:], QueryItemsByCategory)
	fill(bidHistoryKeys[:], QueryBidHistory)
	fill(userInfoKeys[:], QueryUserInfo)
	for u := range userByNickKeys {
		userByNickKeys[u] = QueryUserByNick + ":" + nicknames[u]
	}
	for c := range catRegionKeys {
		for r := range catRegionKeys[c] {
			catRegionKeys[c][r] = QueryItemsByCatRegion + ":" + smallInts[c+1] + "/" + smallInts[r+1]
		}
	}
}

// intStr returns the interned decimal string for v (formatting out-of-range
// values so it stays total).
func intStr(v int64) string {
	if v >= 0 && v < int64(len(smallInts)) {
		return smallInts[v]
	}
	return strconv.FormatInt(v, 10)
}

// Nickname returns user u's nickname (zero-based).
func Nickname(u int) string {
	if u >= 0 && u < NumUsers {
		return nicknames[u]
	}
	return fmt.Sprintf("bidder%03d", u+1)
}

// Password returns user u's password.
func Password(u int) string {
	if u >= 0 && u < NumUsers {
		return userPws[u]
	}
	return "pw-" + Nickname(u)
}
