package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// This file is the one differential harness for the cardinal rule in plan.go:
// whatever plan the engine picks (hash probe, index-ordered walk with early
// stop, index nested-loop join), a statement must return exactly the rows, in
// exactly the order, of a reference database that has no indexes at all and
// can only full-scan in insertion order. FuzzSelect takes the statement text
// from the fuzzer and derives data and arguments from the seed; tier-1 runs
// its seed corpus — the statements below at several seeds, plus the
// applications' own statement texts checked in under testdata/fuzz —
// and CI fuzzes it for 30 s:
//
//	go test -run '^$' -fuzz FuzzSelect -fuzztime 30s ./internal/sqldb

// fuzzSchema is the two applications' tables, stripped of every constraint
// so that NULL and duplicate keys occur. indexed lists the columns that carry
// an index in the tested database and none in the reference.
var fuzzSchema = []struct {
	table, cols string
	indexed     []string
}{
	{"category", "catid TEXT, name TEXT, descn TEXT", []string{"catid"}},
	{"product", "productid TEXT, catid TEXT, name TEXT, descn TEXT", []string{"productid", "catid"}},
	{"item", "itemid TEXT, productid TEXT, listprice FLOAT, unitcost FLOAT, attr TEXT", []string{"itemid", "productid"}},
	{"inventory", "itemid TEXT, qty INT", []string{"itemid"}},
	{"signon", "username TEXT, password TEXT", []string{"username"}},
	{"account", "userid TEXT, email TEXT, firstname TEXT, lastname TEXT, addr1 TEXT, city TEXT, zip TEXT, country TEXT", []string{"userid"}},
	{"orders", "orderid INT, userid TEXT, orderdate INT, totalprice FLOAT", []string{"orderid", "userid"}},
	{"orderstatus", "orderid INT, status TEXT", []string{"orderid"}},
	{"lineitem", "lineid INT, orderid INT, itemid TEXT, quantity INT, unitprice FLOAT", []string{"lineid", "orderid"}},
	{"regions", "id INT, name TEXT", []string{"id"}},
	{"categories", "id INT, name TEXT", []string{"id"}},
	{"users", "id INT, nickname TEXT, password TEXT, email TEXT, rating INT, balance FLOAT, region INT", []string{"id", "nickname"}},
	{"items", "id INT, name TEXT, description TEXT, quantity INT, initial_price FLOAT, reserve_price FLOAT, buy_now FLOAT, nb_of_bids INT, max_bid FLOAT, start_date INT, end_date INT, seller INT, category INT, region INT", []string{"id", "category", "region", "seller", "end_date"}},
	{"bids", "id INT, user_id INT, item_id INT, qty INT, bid FLOAT, bid_date INT", []string{"id", "item_id", "bid"}},
	{"comments", "id INT, from_user INT, to_user INT, item_id INT, rating INT, comment_date INT, comment TEXT", []string{"id", "to_user"}},
}

var fuzzKinds = map[string]Kind{"INT": KindInt, "FLOAT": KindFloat, "TEXT": KindString}

// fuzzWords is the whole TEXT domain: small, so equalities and joins match,
// with case variants and non-ASCII keys for LIKE and index order.
var fuzzWords = []string{"alpha", "Alpha", "beta", "BETA", "gamma", "al", "ALpine", "ärn", "Ärn", ""}

// fuzzValue draws a value of the given kind from a deliberately small domain;
// one in eight is NULL.
func fuzzValue(rng *rand.Rand, kind Kind) Value {
	if rng.Intn(8) == 0 {
		return Null()
	}
	switch kind {
	case KindInt:
		return Int(int64(rng.Intn(6)))
	case KindFloat:
		return Float(float64(rng.Intn(40)) / 4)
	default:
		return Str(fuzzWords[rng.Intn(len(fuzzWords))])
	}
}

// fuzzPair builds the same data in an indexed database and in the index-free
// reference, with deletes and updates in between so tombstones and index
// maintenance are in the picture.
func fuzzPair(t *testing.T, rng *rand.Rand) (indexed, reference *DB) {
	t.Helper()
	indexed, reference = New(), New()
	both := func(sql string, args ...Value) {
		t.Helper()
		mustExec(t, indexed, sql, args...)
		mustExec(t, reference, sql, args...)
	}
	for _, tab := range fuzzSchema {
		both(`CREATE TABLE ` + tab.table + ` (` + tab.cols + `)`)
		for _, col := range tab.indexed {
			mustExec(t, indexed, `CREATE INDEX ix_`+tab.table+`_`+col+` ON `+tab.table+` (`+col+`)`)
		}
		var names []string
		var kinds []Kind
		for _, def := range strings.Split(tab.cols, ", ") {
			name, typ, _ := strings.Cut(def, " ")
			names = append(names, name)
			kinds = append(kinds, fuzzKinds[typ])
		}
		insert := `INSERT INTO ` + tab.table + ` VALUES (?` + strings.Repeat(", ?", len(names)-1) + `)`
		row := func() []Value {
			vals := make([]Value, len(names))
			for i, k := range kinds {
				vals[i] = fuzzValue(rng, k)
			}
			return vals
		}
		for n := 4 + rng.Intn(12); n > 0; n-- {
			both(insert, row()...)
		}
		for i := 0; i < 2; i++ {
			c, d := rng.Intn(len(names)), rng.Intn(len(names))
			both(`DELETE FROM `+tab.table+` WHERE `+names[c]+` = ?`, fuzzValue(rng, kinds[c]))
			both(`UPDATE `+tab.table+` SET `+names[c]+` = ? WHERE `+names[d]+` = ?`,
				fuzzValue(rng, kinds[c]), fuzzValue(rng, kinds[d]))
			both(insert, row()...)
		}
	}
	return indexed, reference
}

// fuzzStatements exercise, on the schema above, each plan shape and the edges
// between them; every golden statement text of the applications is in the
// checked-in corpus beside them (TestFuzzCorpusCoversStatementInventory).
var fuzzStatements = []string{
	// hash probe, including NULL and never-matching keys
	`SELECT * FROM items WHERE id = ?`,
	`SELECT id, name FROM items WHERE region = ? AND category = ? ORDER BY end_date DESC LIMIT 3`,
	`SELECT * FROM product WHERE ? = catid AND name LIKE ?`,
	`SELECT * FROM users WHERE nickname = NULL`,
	`SELECT DISTINCT category FROM items WHERE seller = ? ORDER BY category`,
	// index-ordered walk: ties, DESC, early stop, LIMIT 0, non-ASCII keys
	`SELECT id, bid FROM bids ORDER BY bid LIMIT 4`,
	`SELECT id, bid FROM bids ORDER BY bid DESC`,
	`SELECT nickname, id FROM users WHERE rating >= ? ORDER BY nickname LIMIT 5`,
	`SELECT * FROM items WHERE max_bid < ? OR name LIKE ? ORDER BY end_date LIMIT 0`,
	`SELECT * FROM product WHERE name LIKE ? OR descn LIKE ? ORDER BY catid DESC LIMIT 2`,
	// full scan and sort: unindexed order key, two keys, expression key
	`SELECT id, qty FROM bids WHERE qty > 1 AND qty <= ? ORDER BY qty DESC, bid_date`,
	`SELECT itemid, listprice - unitcost FROM item ORDER BY listprice - unitcost, itemid`,
	`SELECT DISTINCT name FROM product`,
	// index nested-loop joins, probing from either side, and a scanned level
	`SELECT u.nickname, b.bid FROM bids b JOIN users u ON u.id = b.user_id WHERE b.item_id = ? ORDER BY b.bid DESC`,
	`SELECT DISTINCT c.id, c.name FROM categories c JOIN items i ON i.category = c.id WHERE i.region = ? ORDER BY c.id`,
	`SELECT i.itemid, p.name, v.qty FROM product p JOIN item i ON i.productid = p.productid JOIN inventory v ON v.itemid = i.itemid WHERE v.qty > ?`,
	`SELECT r.name, c.name FROM regions r JOIN categories c ON c.id > r.id WHERE r.id = (1 = 1) OR c.name = r.name`,
	`SELECT a.id, b.id FROM comments a JOIN comments b ON b.to_user = a.from_user WHERE a.rating = b.rating LIMIT 7`,
	// LIKE: the substring fast path beside the general matcher — literal and
	// parameter patterns, inner wildcards, non-ASCII, the empty literal, and a
	// pattern that changes from row to row
	`SELECT * FROM product WHERE name LIKE '%AL%' OR descn LIKE '%a_p%' ORDER BY productid`,
	`SELECT name, descn FROM product WHERE name LIKE ? AND descn LIKE ? ORDER BY name`,
	`SELECT id, nickname FROM users WHERE nickname LIKE '%ÄRN%' OR email LIKE '%%' ORDER BY id LIMIT 6`,
	`SELECT p.name, c.name FROM product p JOIN category c ON p.name LIKE c.name + '%' WHERE c.descn LIKE ?`,
	// writes match rows through the same candidates
	`UPDATE items SET nb_of_bids = nb_of_bids + 1, max_bid = ? WHERE id = ?`,
	`UPDATE users SET nickname = ? WHERE rating < ?`,
	`DELETE FROM lineitem WHERE orderid = ? AND quantity > 0`,
	`DELETE FROM signon`,
	`INSERT INTO regions (name, id) VALUES (?, ?), ('east', 9)`,
}

func FuzzSelect(f *testing.F) {
	for _, text := range fuzzStatements {
		for seed := int64(1); seed <= 4; seed++ {
			f.Add(seed, text)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, text string) {
		isSelect := false
		if st, err := Parse(text); err == nil {
			switch s := st.(type) {
			case *SelectStmt:
				if len(s.From) > 3 {
					t.Skip("a cross product this wide only burns time")
				}
				isSelect = true
			case *CreateIndexStmt:
				t.Skip("index DDL would change what distinguishes the two databases")
			}
		}
		rng := rand.New(rand.NewSource(seed))
		indexed, reference := fuzzPair(t, rng)
		args := make([]Value, strings.Count(text, "?"))
		for i := range args {
			args[i] = fuzzValue(rng, Kind(1+rng.Intn(3)))
			if i%2 == 1 && args[i].K == KindString {
				args[i].S = "%" + args[i].S + "%" // a LIKE pattern that matches something
			}
		}
		got, gerr := indexed.Exec(text, args...)
		want, werr := reference.Exec(text, args...)
		if werr != nil {
			// The reference evaluates every row; a probe or an early stop
			// visits fewer and may so miss a row-level evaluation error.
			// That is the one asymmetry: an index never adds an error.
			return
		}
		if gerr != nil {
			t.Fatalf("seed %d: %s %v\nindexed fails: %v\nreference returns %v", seed, text, args, gerr, want.Rows)
		}
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("seed %d: %s %v\nindexed:   %s\nreference: %s", seed, text, args, fingerprint(got), fingerprint(want))
		}
		if isSelect {
			// The rows are a snapshot: no later write, rollback or Restore
			// changes them, and the tables below are compared after all that.
			checkResultIsSnapshot(t, indexed, text, args, got)
		}
		checkAllIndexes(t, indexed)
		for name := range reference.tables {
			g, w := mustExec(t, indexed, `SELECT * FROM `+name), mustExec(t, reference, `SELECT * FROM `+name)
			if fingerprint(g) != fingerprint(w) {
				t.Fatalf("seed %d: after %s %v table %s differs\nindexed:   %s\nreference: %s",
					seed, text, args, name, fingerprint(g), fingerprint(w))
			}
		}
	})
}

// fingerprint renders a result's columns, affected count and ordered rows
// byte-exactly.
func fingerprint(r Result) string {
	var cols []string
	if r.Cols != nil {
		cols = *r.Cols
	}
	out := fmt.Sprintf("%v affected=%d\n", cols, r.Affected)
	for _, row := range r.Rows {
		for _, v := range row {
			out += v.String() + "\x00"
		}
		out += "\n"
	}
	return out
}

// FuzzParse: arbitrary text never panics, in the parser or in the executor
// of an empty database, and a rejection is a SyntaxError positioned inside
// the text.
func FuzzParse(f *testing.F) {
	for _, text := range fuzzStatements {
		f.Add(text)
	}
	for _, text := range []string{
		"", "'", "SELECT", "SELECT a FROM t WHERE s = 'it''s' -- c\n;", "SELECT 1.2.3 FROM t",
		"SELECT a FROM t WHERE a = 99999999999999999999", "SELECT a FROM t WHERE " + strings.Repeat("(", 200) + "a",
		"CREATE TABLE t (a INT PRIMARY KEY, a TEXT NOT NULL, b FLOAT PRIMARY KEY)", "CREATE UNIQUE INDEX i ON t (a)",
		"SELECT COUNT(*) FROM t GROUP BY a HAVING a IN (1) OFFSET 2", "DROP TABLE t", "SELECT a FROM t WHERE a IS NOT NULL",
		"SELECT -a FROM t WHERE NOT a BETWEEN 1 AND 2", "SELECT \xff\x00 FROM é",
		"SELECT a AS x FROM t AS u, t INNER JOIN t ON TRUE != FALSE; -- c",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		st, err := Parse(text)
		if (st == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v", text, st, err)
		}
		var se *SyntaxError
		if err != nil && (!errors.As(err, &se) || se.Pos < 0 || se.Pos > len(text)) {
			t.Fatalf("Parse(%q): %v is not a SyntaxError inside the text", text, err)
		}
		db := New()
		mustExec(t, db, `CREATE TABLE t (a INT PRIMARY KEY, b TEXT)`)
		mustExec(t, db, `INSERT INTO t VALUES (1, 'x'), (2, NULL)`)
		_, _ = db.Exec(text, Int(1), Str("x")) // an error is fine; a panic is the finding
	})
}

// TestFuzzCorpusCoversStatementInventory keeps the checked-in seed corpus in
// step with the statement inventory golden (internal/experiment): every
// statement text the applications issue is differential-tested on every run.
func TestFuzzCorpusCoversStatementInventory(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "experiment", "testdata", "statements.golden"))
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSelect", "*"))
	if err != nil {
		t.Fatal(err)
	}
	inCorpus := make(map[string]bool)
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if quoted, ok := strings.CutPrefix(line, "string("); ok {
				text, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
				if err != nil {
					t.Fatalf("%s: %v", file, err)
				}
				inCorpus[text] = true
			}
		}
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if _, text, ok := strings.Cut(line, "\t"); ok && !inCorpus[text] {
			t.Errorf("no corpus file under testdata/fuzz/FuzzSelect for %q", text)
		}
	}
}
