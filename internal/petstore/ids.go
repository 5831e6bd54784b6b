package petstore

import "fmt"

// Precomputed ID tables. The dataset is small and fixed (Table 1 sizing), so
// every identifier string the generators can emit is built once at package
// init; the request hot path then hands out interned strings instead of
// calling fmt.Sprintf per draw. The functions below keep their fmt-based
// behavior for out-of-range arguments so they remain total.
var (
	categoryIDs [NumCategories]string
	productIDs  [NumCategories][ProductsPerCategory]string
	itemIDs     [NumCategories][ProductsPerCategory][ItemsPerProduct]string
	userIDs     [NumAccounts]string
	passwords   [NumAccounts]string
	searchQs    [ProductsPerCategory]string
	// A cart line's state keys, "item0"/"price0" on: a buyer session
	// adds one line before its cart is cleared.
	cartItemKeys  [8]string
	cartPriceKeys [8]string
)

func init() {
	for c := range categoryIDs {
		categoryIDs[c] = fmt.Sprintf("C%02d", c+1)
		for p := range productIDs[c] {
			productIDs[c][p] = fmt.Sprintf("%s-P%02d", categoryIDs[c], p+1)
			for n := range itemIDs[c][p] {
				itemIDs[c][p][n] = fmt.Sprintf("%s-I%d", productIDs[c][p], n+1)
			}
		}
	}
	for u := range userIDs {
		userIDs[u] = fmt.Sprintf("user%03d", u+1)
		passwords[u] = "pw-" + userIDs[u]
	}
	for q := range searchQs {
		searchQs[q] = fmt.Sprintf("P%02d", q+1)
	}
	for n := range cartItemKeys {
		cartItemKeys[n], cartPriceKeys[n] = fmt.Sprintf("item%d", n), fmt.Sprintf("price%d", n)
	}
}

// cartLineKeys returns the state keys of cart line n (zero-based).
func cartLineKeys(n int64) (item, price string) {
	if n >= 0 && n < int64(len(cartItemKeys)) {
		return cartItemKeys[n], cartPriceKeys[n]
	}
	return fmt.Sprintf("item%d", n), fmt.Sprintf("price%d", n)
}

// CategoryID returns the id of category i (zero-based): "C01".."C10".
func CategoryID(i int) string {
	if i >= 0 && i < NumCategories {
		return categoryIDs[i]
	}
	return fmt.Sprintf("C%02d", i+1)
}

// ProductID returns the id of product p within category c (zero-based).
func ProductID(c, p int) string {
	if c >= 0 && c < NumCategories && p >= 0 && p < ProductsPerCategory {
		return productIDs[c][p]
	}
	return fmt.Sprintf("%s-P%02d", CategoryID(c), p+1)
}

// ItemID returns the id of item n of product p in category c (zero-based).
func ItemID(c, p, n int) string {
	if c >= 0 && c < NumCategories && p >= 0 && p < ProductsPerCategory && n >= 0 && n < ItemsPerProduct {
		return itemIDs[c][p][n]
	}
	return fmt.Sprintf("%s-I%d", ProductID(c, p), n+1)
}

// UserID returns the id of account u (zero-based).
func UserID(u int) string {
	if u >= 0 && u < NumAccounts {
		return userIDs[u]
	}
	return fmt.Sprintf("user%03d", u+1)
}
