package sqldb

import (
	"testing"
)

// checkIndexInvariant verifies the ordered-index structural invariant: the
// sorted buckets are exactly the map's, in compareKey order, and every
// bucket holds strictly ascending row positions.
func checkIndexInvariant(t *testing.T, ix *index) {
	t.Helper()
	if len(ix.sorted) != len(ix.m) {
		t.Fatalf("index %s: %d sorted buckets vs %d map keys", ix.name, len(ix.sorted), len(ix.m))
	}
	for i, b := range ix.sorted {
		if ix.m[b.k] != b {
			t.Fatalf("index %s: sorted bucket %d is not the map's bucket for its key", ix.name, i)
		}
		if i > 0 && compareKey(ix.sorted[i-1].k, b.k) >= 0 {
			t.Fatalf("index %s: buckets out of order at %d", ix.name, i)
		}
		if len(b.pos) == 0 {
			t.Fatalf("index %s: empty bucket for %v", ix.name, b.k)
		}
		for j := 1; j < len(b.pos); j++ {
			if b.pos[j-1] >= b.pos[j] {
				t.Fatalf("index %s: bucket %v not ascending: %v", ix.name, b.k, b.pos)
			}
		}
	}
}

func checkAllIndexes(t *testing.T, db *DB) {
	t.Helper()
	for _, tab := range db.tables {
		for _, ix := range tab.indexes {
			checkIndexInvariant(t, ix)
		}
	}
}

func TestOrderedIndexMaintenance(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `CREATE INDEX idx_v ON t (v)`)
	// Insert out of key order, with duplicates on the secondary index.
	mustExec(t, db, `INSERT INTO t VALUES (5, 'm'), (1, 'z'), (9, 'a'), (3, 'm'), (7, 'a')`)
	checkAllIndexes(t, db)

	// Deleting empties one bucket and shrinks another.
	mustExec(t, db, `DELETE FROM t WHERE id = 1`)
	mustExec(t, db, `DELETE FROM t WHERE v = 'a'`)
	checkAllIndexes(t, db)

	// Updating an indexed column moves the row between buckets.
	mustExec(t, db, `UPDATE t SET v = 'q' WHERE id = 5`)
	checkAllIndexes(t, db)

	// Rolled-back work must leave the ordered structure intact.
	tx := db.Begin()
	if _, err := tx.Exec(`INSERT INTO t VALUES (2, 'b'), (8, 'y')`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE t SET v = 'k' WHERE id = 3`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`DELETE FROM t WHERE id = 5`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	checkAllIndexes(t, db)
	r, err := db.Query(`SELECT id FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if got := intColumn(r, 0); !equalInts(got, []int64{3, 5}) {
		t.Fatalf("after rollback: %v", got)
	}
}

func mustExec(t *testing.T, db *DB, sql string, args ...Value) Result {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func intColumn(r Result, col int) []int64 {
	out := make([]int64, 0, len(r.Rows))
	for _, row := range r.Rows {
		out = append(out, row[col].AsInt())
	}
	return out
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRangeBoundsStrictness(t *testing.T) {
	db := newTestDB(t)
	for _, tc := range []struct {
		sql  string
		want []int64
	}{
		{`SELECT id FROM items WHERE id >= 3`, []int64{3, 4}},
		{`SELECT id FROM items WHERE id < 2`, []int64{1}},
		{`SELECT id FROM items WHERE id <= 2`, []int64{1, 2}},
		{`SELECT id FROM items WHERE 2 < id`, []int64{3, 4}},
		{`SELECT id FROM items WHERE id > 1 AND id <= 3`, []int64{2, 3}},
	} {
		r, err := db.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := intColumn(r, 0); !equalInts(got, tc.want) {
			t.Fatalf("%s: got %v want %v", tc.sql, got, tc.want)
		}
		// A range predicate is a filter over the full scan, in both books.
		if r.Scanned != 4 || r.ScannedActual != 4 || r.IndexUsed || r.IndexProbes != 0 {
			t.Fatalf("%s: scanned=%d actual=%d indexed=%v probes=%d",
				tc.sql, r.Scanned, r.ScannedActual, r.IndexUsed, r.IndexProbes)
		}
	}
}

func TestLikePrefixOnIndexedColumn(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE INDEX idx_users_nick ON users (nick)`)
	// LIKE is case-insensitive and always a filter over the full scan, index
	// or not: either spelling of the prefix finds the row and visits all three.
	for _, pattern := range []string{"a%", "A%"} {
		r, err := db.Query(`SELECT nick FROM users WHERE nick LIKE ?`, Str(pattern))
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 1 || r.Rows[0][0].S != "ann" {
			t.Fatalf("%s: rows: %v", pattern, r.Rows)
		}
		if r.Scanned != 3 || r.ScannedActual != 3 || r.IndexUsed {
			t.Fatalf("%s: scanned=%d actual=%d indexed=%v", pattern, r.Scanned, r.ScannedActual, r.IndexUsed)
		}
	}
}

func TestNonASCIIIndexOrdersAndProbes(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `INSERT INTO users VALUES (4, 'ärn', 'east', 1), (5, 'Ärn', 'west', 2), (6, 'zoë', 'east', 3)`)
	mustExec(t, db, `CREATE INDEX idx_users_nick ON users (nick)`)
	checkAllIndexes(t, db)
	// Equality probes the index on the exact bytes.
	r, err := db.Query(`SELECT id FROM users WHERE nick = ?`, Str("ärn"))
	if err != nil {
		t.Fatal(err)
	}
	if got := intColumn(r, 0); !equalInts(got, []int64{4}) || !r.IndexUsed || r.ScannedActual != 1 {
		t.Fatalf("probe: rows=%v indexed=%v actual=%d", got, r.IndexUsed, r.ScannedActual)
	}
	// The ordered walk yields byte order, the order the sort produces.
	walked, err := db.Query(`SELECT id FROM users ORDER BY nick LIMIT 6`)
	if err != nil {
		t.Fatal(err)
	}
	if got := intColumn(walked, 0); !equalInts(got, []int64{1, 2, 3, 6, 5, 4}) {
		t.Fatalf("walk order: %v", got)
	}
	// LIKE folds case across the non-ASCII keys, by full scan.
	r, err = db.Query(`SELECT id FROM users WHERE nick LIKE ? ORDER BY id`, Str("ÄR%"))
	if err != nil {
		t.Fatal(err)
	}
	if got := intColumn(r, 0); !equalInts(got, []int64{4, 5}) || r.ScannedActual != 6 {
		t.Fatalf("like: rows=%v actual=%d", got, r.ScannedActual)
	}
	// Deleting and updating the keys keeps the ordered structure intact.
	mustExec(t, db, `DELETE FROM users WHERE id = 4`)
	mustExec(t, db, `UPDATE users SET nick = 'éva' WHERE id = 5`)
	checkAllIndexes(t, db)
	walked, err = db.Query(`SELECT id FROM users ORDER BY nick DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if got := intColumn(walked, 0); !equalInts(got, []int64{5, 6}) {
		t.Fatalf("walk after update: %v", got)
	}
}

func TestOrderedWalkLimit(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Query(`SELECT id FROM items ORDER BY id LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if got := intColumn(r, 0); !equalInts(got, []int64{1, 2}) {
		t.Fatalf("rows: %v", got)
	}
	if r.ScannedActual != 2 {
		t.Fatalf("early termination: actual = %d, want 2", r.ScannedActual)
	}
	if r.Scanned != 4 {
		t.Fatalf("virtual scanned = %d, want 4", r.Scanned)
	}
}

func TestOrderedWalkDesc(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Query(`SELECT id FROM items ORDER BY id DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := intColumn(r, 0); !equalInts(got, []int64{4}) {
		t.Fatalf("rows: %v", got)
	}
	if r.ScannedActual != 1 {
		t.Fatalf("actual = %d, want 1", r.ScannedActual)
	}
}

func TestOrderedWalkOffset(t *testing.T) {
	db := newTestDB(t)
	wantSyntaxErrorAt(t, `SELECT id FROM items ORDER BY id LIMIT 1 OFFSET 2`, "OFFSET")
	// Without an offset the walk stops at the first accepted row.
	r, err := db.Query(`SELECT id FROM items WHERE id > 2 ORDER BY id LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := intColumn(r, 0); !equalInts(got, []int64{3}) {
		t.Fatalf("rows: %v", got)
	}
	if r.ScannedActual != 3 {
		t.Fatalf("actual = %d, want 3 (rejected rows are visited)", r.ScannedActual)
	}
}

func TestOrderedWalkLimitZero(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Query(`SELECT id FROM items ORDER BY id LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || r.ScannedActual != 0 {
		t.Fatalf("rows=%d actual=%d, want 0/0", r.Len(), r.ScannedActual)
	}
}

func TestOrderedWalkTiesKeepPositionOrder(t *testing.T) {
	db := newTestDB(t)
	// category has duplicates; a full walk (no LIMIT) must
	// reproduce the stable sort's insertion order within equal keys.
	r, err := db.Query(`SELECT name FROM items ORDER BY category`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lamp", "couch", "red bike", "blue bike"}
	if r.Len() != len(want) {
		t.Fatalf("rows: %v", r.Rows)
	}
	for i, w := range want {
		if r.Rows[i][0].S != w {
			t.Fatalf("row %d = %q, want %q (full: %v)", i, r.Rows[i][0].S, w, r.Rows)
		}
	}
}

func TestOrderedWalkWithWhereFilter(t *testing.T) {
	db := newTestDB(t)
	// WHERE on a non-eq predicate keeps the legacy plan full-scanning, so
	// the ordered walk still applies and filters inline.
	r, err := db.Query(`SELECT id FROM items WHERE price < ? ORDER BY id DESC LIMIT 2`, Float(100))
	if err != nil {
		t.Fatal(err)
	}
	if got := intColumn(r, 0); !equalInts(got, []int64{3, 2}) {
		t.Fatalf("rows: %v", got)
	}
}

func TestPlanCacheHitAndDDLInvalidation(t *testing.T) {
	db := newTestDB(t)
	q := `SELECT name FROM items WHERE category = ?`
	r1, err := db.Query(q, Str("home"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.PlanCached {
		t.Fatal("first execution must build the plan")
	}
	r2, err := db.Query(q, Str("sports"))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.PlanCached {
		t.Fatal("second execution must hit the plan cache")
	}
	// Any schema change invalidates cached plans.
	mustExec(t, db, `CREATE INDEX idx_items_name ON items (name)`)
	r3, err := db.Query(q, Str("home"))
	if err != nil {
		t.Fatal(err)
	}
	if r3.PlanCached {
		t.Fatal("DDL must invalidate the cached plan")
	}
	r4, err := db.Query(q, Str("home"))
	if err != nil {
		t.Fatal(err)
	}
	if !r4.PlanCached {
		t.Fatal("rebuilt plan must be cached again")
	}
}

func TestUpdateDeletePlansCached(t *testing.T) {
	db := newTestDB(t)
	r1 := mustExec(t, db, `UPDATE items SET qty = ? WHERE id = ?`, Int(5), Int(1))
	if r1.PlanCached || r1.Scanned != 1 {
		t.Fatalf("first update: cached=%v scanned=%d", r1.PlanCached, r1.Scanned)
	}
	r2 := mustExec(t, db, `UPDATE items SET qty = ? WHERE id = ?`, Int(6), Int(2))
	if !r2.PlanCached {
		t.Fatal("second update must hit the plan cache")
	}
	d1 := mustExec(t, db, `DELETE FROM bids WHERE item_id = ?`, Int(3))
	if d1.PlanCached {
		t.Fatal("first delete must build the plan")
	}
	d2 := mustExec(t, db, `DELETE FROM bids WHERE item_id = ?`, Int(1))
	if !d2.PlanCached || !d2.IndexUsed {
		t.Fatalf("second delete: cached=%v indexed=%v", d2.PlanCached, d2.IndexUsed)
	}
	checkAllIndexes(t, db)
}

func TestPreparedHandle(t *testing.T) {
	db := newTestDB(t)
	sel, err := db.PrepareStmt(`SELECT name FROM items WHERE category = ?`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sel.Exec(Str("home"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("rows: %v", r.Rows)
	}
	r2, err := sel.Exec(Str("sports"))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.PlanCached {
		t.Fatal("prepared re-execution must hit the plan cache")
	}

	var hookSQL string
	db.SetWriteHook(func(sql string, args []Value) { hookSQL = sql })
	upd, err := db.PrepareStmt(`UPDATE items SET qty = ? WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := upd.Exec(Int(42), Int(1)); err != nil {
		t.Fatal(err)
	}
	if hookSQL == "" {
		t.Fatal("write hook must fire for prepared mutations")
	}

	if _, err := db.PrepareStmt(`SELECT FROM`); err == nil {
		t.Fatal("syntax error must surface at prepare time")
	}
}

func TestJoinCountsAndProbes(t *testing.T) {
	db := newTestDB(t)
	r, err := db.Query(
		`SELECT items.name, bids.amount FROM items JOIN bids ON bids.item_id = items.id WHERE items.id = ?`,
		Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("rows: %v", r.Rows)
	}
	if !r.IndexUsed {
		t.Fatal("join must probe the bids index")
	}
	if r.ScannedActual != r.Scanned {
		t.Fatalf("join virtual (%d) and actual (%d) must coincide", r.Scanned, r.ScannedActual)
	}
	if r.IndexProbes == 0 {
		t.Fatal("join must count index probes")
	}
}
