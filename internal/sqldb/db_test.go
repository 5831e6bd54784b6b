package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// newTestDB builds a small bidding-style schema used across executor tests.
func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	stmts := []string{
		`CREATE TABLE users (id INT PRIMARY KEY, nick TEXT NOT NULL, region TEXT, rating INT)`,
		`CREATE TABLE items (id INT PRIMARY KEY, name TEXT NOT NULL, seller INT, category TEXT, price FLOAT, qty INT)`,
		`CREATE TABLE bids (id INT PRIMARY KEY, item_id INT, user_id INT, amount FLOAT)`,
		`CREATE INDEX idx_items_cat ON items (category)`,
		`CREATE INDEX idx_bids_item ON bids (item_id)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	seed := []string{
		`INSERT INTO users VALUES (1, 'ann', 'east', 10), (2, 'bob', 'west', 4), (3, 'cal', 'east', 7)`,
		`INSERT INTO items VALUES
			(1, 'red bike', 1, 'sports', 50.0, 3),
			(2, 'blue bike', 2, 'sports', 75.5, 1),
			(3, 'lamp', 2, 'home', 10.0, 9),
			(4, 'couch', 3, 'home', 200.0, 1)`,
		`INSERT INTO bids VALUES
			(1, 1, 2, 55.0), (2, 1, 3, 60.0), (3, 2, 1, 80.0), (4, 3, 1, 12.5)`,
	}
	for _, s := range seed {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return db
}

func TestSelectAll(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Exec(`SELECT * FROM users`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 || len(*r.Cols) != 4 {
		t.Fatalf("rows=%d cols=%v", r.Len(), *r.Cols)
	}
}

func TestSelectWhereEqUsesIndex(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Exec(`SELECT name FROM items WHERE category = ?`, Str("sports"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("rows = %d, want 2", r.Len())
	}
	// Index probe should scan only matching rows, not the whole table.
	if r.Scanned != 2 {
		t.Fatalf("scanned = %d, want 2 (index probe)", r.Scanned)
	}
}

func TestSelectFullScanCountsAllRows(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Exec(`SELECT name FROM items WHERE price > 40`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scanned != 4 {
		t.Fatalf("scanned = %d, want 4 (full scan)", r.Scanned)
	}
	if r.Len() != 3 {
		t.Fatalf("rows = %d, want 3", r.Len())
	}
}

func TestSelectPrimaryKeyLookup(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Exec(`SELECT nick FROM users WHERE id = ?`, Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Rows[0][0].S != "bob" {
		t.Fatalf("%v", r.Rows)
	}
	if r.Scanned != 1 {
		t.Fatalf("scanned = %d, want 1 (pk index)", r.Scanned)
	}
}

func TestSelectOrderByLimitOffset(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Exec(`SELECT name, price FROM items ORDER BY price DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("rows = %d", r.Len())
	}
	if r.Rows[0][0].S != "couch" || r.Rows[1][0].S != "blue bike" {
		t.Fatalf("%v", r.Rows)
	}
	wantSyntaxErrorAt(t, `SELECT name, price FROM items ORDER BY price DESC LIMIT 2 OFFSET 1`, "OFFSET")
}

func TestSelectJoinWithIndexProbe(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Exec(`SELECT u.nick, b.amount FROM bids b JOIN users u ON u.id = b.user_id
		WHERE b.item_id = ? ORDER BY b.amount DESC`, Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("rows = %d", r.Len())
	}
	if r.Rows[0][0].S != "cal" || r.Rows[0][1].AsFloat() != 60.0 {
		t.Fatalf("%v", r.Rows)
	}
}

func TestSelectCommaJoin(t *testing.T) {
	db := newTestDB(t)
	wantSyntaxErrorAt(t, `SELECT i.name FROM items i, users u WHERE i.seller = u.id AND u.nick = 'bob'`, ", users")
	r, err := db.Exec(`SELECT i.name FROM items i JOIN users u ON i.seller = u.id WHERE u.nick = 'bob'
		ORDER BY i.name`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Rows[0][0].S != "blue bike" || r.Rows[1][0].S != "lamp" {
		t.Fatalf("%v", r.Rows)
	}
}

func TestAggregates(t *testing.T) {
	db := newTestDB(t)
	for _, fn := range []string{"COUNT(*)", "SUM(amount)", "AVG(amount)", "MIN(amount)", "MAX(amount)"} {
		sql := `SELECT ` + fn + ` FROM bids`
		wantSyntaxErrorAt(t, sql, fn)
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%s executed", sql)
		}
	}
}

func TestGroupByHaving_Ordering(t *testing.T) {
	wantSyntaxErrorAt(t, `SELECT category FROM items GROUP BY category ORDER BY category`, "GROUP")
	wantSyntaxErrorAt(t, `SELECT category FROM items WHERE qty > 1 GROUP BY category`, "GROUP")
	wantSyntaxErrorAt(t, `SELECT category FROM items HAVING qty > 1`, "HAVING")
}

func TestCountOnEmptyTableIsZero(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE empty (a INT)`); err != nil {
		t.Fatal(err)
	}
	r, err := db.Exec(`SELECT a FROM empty`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || r.Scanned != 0 {
		t.Fatalf("rows=%v scanned=%d", r.Rows, r.Scanned)
	}
}

func TestUpdateWithExpression(t *testing.T) {
	db := newTestDB(t)
	// A SET expression reads the row it writes: qty takes the seller's id.
	r, err := db.Exec(`UPDATE items SET qty = seller WHERE category = ?`, Str("home"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 2 {
		t.Fatalf("affected = %d", r.Affected)
	}
	got, _ := db.Exec(`SELECT qty FROM items WHERE category = 'home' ORDER BY id`)
	if q := intColumn(got, 0); !equalInts(q, []int64{2, 3}) {
		t.Fatalf("qty = %v, want [2 3]", q)
	}
}

func TestUpdateIndexedColumnMaintainsIndex(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`UPDATE items SET category = 'garden' WHERE id = 3`); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Exec(`SELECT name FROM items WHERE category = 'garden'`)
	if r.Len() != 1 || r.Rows[0][0].S != "lamp" {
		t.Fatalf("%v", r.Rows)
	}
	r, _ = db.Exec(`SELECT name FROM items WHERE category = 'home'`)
	if r.Len() != 1 {
		t.Fatalf("old index entry not removed: %v", r.Rows)
	}
}

func TestInsertDuplicatePK(t *testing.T) {
	db := newTestDB(t)
	_, err := db.Exec(`INSERT INTO users VALUES (1, 'dup', 'east', 0)`)
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
}

func TestInsertNotNullViolation(t *testing.T) {
	db := newTestDB(t)
	_, err := db.Exec(`INSERT INTO users (id, region) VALUES (9, 'east')`)
	if !errors.Is(err, ErrNotNull) {
		t.Fatalf("err = %v, want ErrNotNull", err)
	}
}

func TestInsertColumnSubset(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`INSERT INTO users (id, nick) VALUES (9, 'zed')`); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Exec(`SELECT region FROM users WHERE id = 9`)
	if !r.Rows[0][0].IsNull() {
		t.Fatalf("region = %v, want NULL", r.Rows[0][0])
	}
}

// TestWriteReturnsStoredRow: a single-row INSERT or UPDATE returns the row
// it stored, as RETURNING * would: the table's columns and the values a
// fresh SELECT * by key reads, defaults and coercions included. A write of
// more rows returns none, and no write counts a row as returned. A returned
// row is a snapshot a later UPDATE leaves alone.
func TestWriteReturnsStoredRow(t *testing.T) {
	db := newTestDB(t)
	var returned []int
	db.SetObserver(func(info StatementInfo) {
		if info.Verb != "select" {
			returned = append(returned, info.Returned)
		}
	})
	for _, c := range []struct {
		sql  string
		args []Value
		id   int64
	}{
		{`INSERT INTO items (id, name, price) VALUES (?, ?, ?)`, []Value{Int(9), Str("rug"), Int(20)}, 9},
		{`UPDATE items SET qty = seller, price = ? WHERE id = ?`, []Value{Int(60), Int(1)}, 1},
		{`UPDATE items SET category = NULL WHERE name = ?`, []Value{Str("lamp")}, 3},
	} {
		res := mustExec(t, db, c.sql, c.args...)
		fresh := mustExec(t, db, `SELECT * FROM items WHERE id = ?`, Int(c.id))
		if res.Cols == nil || !reflect.DeepEqual(*res.Cols, *fresh.Cols) || !reflect.DeepEqual(res.Rows, fresh.Rows) {
			t.Fatalf("%s returned %v %v, the stored row is %v %v", c.sql, res.Cols, res.Rows, *fresh.Cols, fresh.Rows)
		}
	}
	stored := mustExec(t, db, `UPDATE items SET qty = 5 WHERE id = 2`)
	want := append([]Value(nil), stored.Rows[0]...)
	mustExec(t, db, `UPDATE items SET qty = 6, name = 'green bike' WHERE id = 2`)
	if !reflect.DeepEqual(stored.Rows[0], want) {
		t.Fatalf("a later UPDATE changed a returned row: %v, was %v", stored.Rows[0], want)
	}
	for _, sql := range []string{
		`INSERT INTO users VALUES (7, 'dee', 'west', 1), (8, 'eve', 'east', 2)`,
		`UPDATE items SET qty = 0 WHERE category = 'sports'`,
	} {
		if res := mustExec(t, db, sql); res.Affected != 2 || res.Len() != 0 {
			t.Fatalf("%s: %d affected, %d rows returned, want 2 and none", sql, res.Affected, res.Len())
		}
	}
	if !reflect.DeepEqual(returned, make([]int, 7)) {
		t.Fatalf("writes observed returning %v rows, want 0 each of 7", returned)
	}
}

func TestCoercionIntToFloatColumn(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`INSERT INTO items VALUES (9, 'rug', 1, 'home', 20, 1)`); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Exec(`SELECT price FROM items WHERE id = 9`)
	if r.Rows[0][0].K != KindFloat || r.Rows[0][0].AsFloat() != 20 {
		t.Fatalf("price = %#v", r.Rows[0][0])
	}
}

func TestLikeSearch(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Exec(`SELECT name FROM items WHERE name LIKE ?`, Str("%bike%"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("rows = %d", r.Len())
	}
	// Case-insensitive.
	r, _ = db.Exec(`SELECT name FROM items WHERE name LIKE 'RED%'`)
	if r.Len() != 1 {
		t.Fatalf("case-insensitive LIKE failed: %d", r.Len())
	}
}

func TestInAndBetween(t *testing.T) {
	wantSyntaxErrorAt(t, `SELECT nick FROM users WHERE id IN (1, 3) ORDER BY nick`, "IN")
	wantSyntaxErrorAt(t, `SELECT name FROM items WHERE price BETWEEN 40 AND 100 ORDER BY price`, "BETWEEN")
	// The same sets, spelled in the grammar that exists.
	db := newTestDB(t)
	r, err := db.Exec(`SELECT nick FROM users WHERE id = 1 OR id = 3 ORDER BY nick`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Rows[0][0].S != "ann" {
		t.Fatalf("%v", r.Rows)
	}
	r, _ = db.Exec(`SELECT name FROM items WHERE price >= 40 AND price <= 100 ORDER BY price`)
	if r.Len() != 2 || r.Rows[0][0].S != "red bike" {
		t.Fatalf("%v", r.Rows)
	}
}

func TestIsNull(t *testing.T) {
	wantSyntaxErrorAt(t, `SELECT nick FROM users WHERE region IS NULL`, "IS")
	wantSyntaxErrorAt(t, `SELECT nick FROM users WHERE region IS NOT NULL`, "IS")
}

func TestDistinct(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Exec(`SELECT DISTINCT category FROM items ORDER BY category`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Rows[0][0].S != "home" || r.Rows[1][0].S != "sports" {
		t.Fatalf("%v", r.Rows)
	}
	// Rows compare value by value: the first two rows render to one joined
	// string, and a predicate's false, true and NULL are three values.
	mustExec(t, db, `CREATE TABLE pairs (id INT PRIMARY KEY, a TEXT, b TEXT)`)
	mustExec(t, db, `INSERT INTO pairs VALUES (1, ?, 'c'), (2, 'a', ?), (3, NULL, 'c'), (4, 'a', ?)`,
		Str("a'\x00'b"), Str("b'\x00'c"), Str("b'\x00'c"))
	for sql, want := range map[string]int{
		`SELECT DISTINCT a, b FROM pairs`:       3,
		`SELECT DISTINCT a = 'a' FROM pairs`:    3,
		`SELECT DISTINCT b, a = 'a' FROM pairs`: 3,
		`SELECT DISTINCT b FROM pairs`:          2,
	} {
		if r := mustExec(t, db, sql); r.Len() != want {
			t.Errorf("%s: %d rows, want %d: %v", sql, r.Len(), want, r.Rows)
		}
	}
}

func TestNullComparisonsNeverMatch(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`INSERT INTO users (id, nick) VALUES (9, 'zed')`); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Exec(`SELECT nick FROM users WHERE region = region AND id = 9`)
	if r.Len() != 0 {
		t.Fatalf("NULL = NULL matched: %v", r.Rows)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := newTestDB(t)
	for _, sql := range []string{
		`SELECT UPPER(nick) FROM users WHERE id = 1`,
		`SELECT nick FROM users WHERE LENGTH(nick) = 3`,
	} {
		wantSyntaxErrorAt(t, sql, "(")
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%s executed", sql)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	db := newTestDB(t)
	r, _ := db.Exec(`SELECT nick, u.rating, rating > 1 FROM users u WHERE id = 1`)
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if want := []string{"nick", "rating", "expr"}; !reflect.DeepEqual(*r.Cols, want) {
		t.Fatalf("Cols = %v, want %v", *r.Cols, want)
	}
}

func TestDropTable(t *testing.T) {
	db := newTestDB(t)
	wantSyntaxErrorAt(t, `DROP TABLE bids`, "DROP")
	if _, err := db.Exec(`DROP TABLE bids`); err == nil {
		t.Fatal("DROP TABLE executed")
	}
	if r, err := db.Exec(`SELECT * FROM bids`); err != nil || r.Len() != 4 {
		t.Fatalf("bids after rejected DROP: %d rows, %v", r.Len(), err)
	}
}

func TestUniqueSecondaryIndex(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`CREATE UNIQUE INDEX idx_nick ON users (nick)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO users VALUES (10, 'ann', 'west', 1)`); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
}

func TestUniqueIndexBuildFailsOnDuplicates(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`CREATE UNIQUE INDEX idx_cat ON items (category)`); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
}

func TestErrorNoSuchTableAndColumn(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`SELECT a FROM missing`); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Exec(`SELECT missing FROM users`); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	db := newTestDB(t)
	_, err := db.Exec(`SELECT id FROM users u JOIN items i ON u.id = i.seller`)
	if err == nil {
		t.Fatal("ambiguous column accepted")
	}
}

func TestMissingParameter(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`SELECT * FROM users WHERE id = ?`); err == nil {
		t.Fatal("missing parameter accepted")
	}
}

func TestCostIncreasesWithScans(t *testing.T) {
	db := newTestDB(t)
	point, err := db.Exec(`SELECT nick FROM users WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := db.Exec(`SELECT nick FROM users WHERE rating > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if point.Cost >= scan.Cost {
		t.Fatalf("point cost %v >= scan cost %v", point.Cost, scan.Cost)
	}
}

func TestStatementsCounter(t *testing.T) {
	db := newTestDB(t)
	var seen []StatementInfo
	db.SetObserver(func(info StatementInfo) { seen = append(seen, info) })
	if _, err := db.Exec(`SELECT * FROM users`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`SELECT * FROM ghost`); err == nil {
		t.Fatal("unknown table accepted")
	}
	// One observation per successful statement: this is the count the
	// metrics layer exports.
	if len(seen) != 1 || seen[0].Verb != "select" || seen[0].Table != "users" || seen[0].Returned != 3 {
		t.Fatalf("observed %+v", seen)
	}
	// A statement keeps its identity across executions, and another text
	// (of the same verb and table) has its own.
	mustExec(t, db, `SELECT * FROM users`)
	mustExec(t, db, `SELECT id FROM users`)
	if seen[1].Stmt != seen[0].Stmt || seen[2].Stmt == seen[0].Stmt || seen[2].Stmt.SQL != `SELECT id FROM users` {
		t.Fatalf("identities %p %p %p", seen[0].Stmt, seen[1].Stmt, seen[2].Stmt)
	}
}

func TestPrepareCachesParse(t *testing.T) {
	db := newTestDB(t)
	before := len(db.PreparedTexts())
	p1, err := db.PrepareStmt(`SELECT * FROM users WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.PrepareStmt(`SELECT * FROM users WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if p1.st != p2.st {
		t.Fatal("prepare did not cache")
	}
	// The cache is what PreparedTexts lists: one entry per distinct text,
	// sorted, whichever of Exec, PrepareStmt or Describe parsed it.
	db.Describe(`UPDATE users SET nick = ? WHERE id = ?`)
	texts := db.PreparedTexts()
	if len(texts) != before+2 || !sort.StringsAreSorted(texts) {
		t.Fatalf("prepared texts: %q", texts)
	}
}

func TestDescribeLabels(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE item (id TEXT PRIMARY KEY, qty INT)")
	cases := map[string]string{
		"SELECT id FROM item WHERE qty > ?":  "select item",
		"INSERT INTO item VALUES (?, ?)":     "insert item",
		"UPDATE item SET qty = ? WHERE id=?": "update item",
		"DELETE FROM item WHERE id = ?":      "sql",
		"not sql at all":                     "sql",
	}
	for sql, want := range cases {
		if got := db.Describe(sql); got != want {
			t.Errorf("Describe(%q) = %q, want %q", sql, got, want)
		}
	}
	// Labels are interned: the same statement text returns the same string.
	a, b := db.Describe("SELECT id FROM item"), db.Describe("SELECT id FROM item")
	if a != b || a != "select item" {
		t.Errorf("interned label mismatch: %q vs %q", a, b)
	}
}

// ORDER BY … LIMIT k returns exactly the full sort's first k rows in order,
// ties broken by position, on duplicate-heavy keys, DESC, multi-key and
// evaluated orders, and for k at or past the matches.
func TestOrderedLimitMatchesFullSort(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT, c FLOAT)`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?, ?)`, Int(int64(i)), Int(int64(rng.Intn(4))),
			Str(string(rune('x'+rng.Intn(3)))), Float(float64(rng.Intn(10)))); err != nil {
			t.Fatal(err)
		}
	}
	orders := []string{"a", "a DESC", "b, a", "a DESC, b DESC", "c, b DESC", "c > 4, a", "a, c DESC, b DESC"}
	for _, from := range []string{"SELECT id, a, b, c FROM t", "SELECT * FROM t WHERE a <> 2", "SELECT b, id FROM t WHERE c < 8"} {
		for _, order := range orders {
			full, err := db.Exec(from + " ORDER BY " + order)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 1, 2, 7, 50, full.Len() - 1, full.Len(), full.Len() + 1, 1000} {
				q := fmt.Sprintf("%s ORDER BY %s LIMIT %d", from, order, k)
				got, err := db.Exec(q)
				if err != nil {
					t.Fatal(err)
				}
				want := full.Rows[:min(k, full.Len())]
				if fmt.Sprint(got.Rows) != fmt.Sprint(want) {
					t.Fatalf("%s:\n got %v\nwant %v", q, got.Rows, want)
				}
			}
		}
	}
}
