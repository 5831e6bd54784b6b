package sqldb

import (
	"fmt"
	"strconv"
	"testing"

	"wadeploy/internal/race"
)

// newBenchDB seeds a catalog-shaped dataset large enough that plan quality
// dominates: 2000 items across 50 groups, 6000 child rows.
func newBenchDB(tb testing.TB) *DB {
	tb.Helper()
	db := New()
	ddl := []string{
		`CREATE TABLE item (id INT PRIMARY KEY, grp INT, name TEXT, price FLOAT)`,
		`CREATE TABLE detail (id INT PRIMARY KEY, item_id INT, note TEXT)`,
		`CREATE INDEX ix_item_grp ON item (grp)`,
		`CREATE INDEX ix_detail_item ON detail (item_id)`,
	}
	for _, s := range ddl {
		if _, err := db.Exec(s); err != nil {
			tb.Fatal(err)
		}
	}
	ins, err := db.PrepareStmt(`INSERT INTO item VALUES (?, ?, ?, ?)`)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := ins.Exec(Int(int64(i)), Int(int64(i%50)),
			Str(fmt.Sprintf("item-%04d", i)), Float(float64(i%500))); err != nil {
			tb.Fatal(err)
		}
	}
	insD, err := db.PrepareStmt(`INSERT INTO detail VALUES (?, ?, ?)`)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 6000; i++ {
		if _, err := insD.Exec(Int(int64(i)), Int(int64(i%2000)), Str("note")); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

func BenchmarkSqldbPointLookup(b *testing.B) {
	db := newBenchDB(b)
	st, err := db.PrepareStmt(`SELECT name, price FROM item WHERE id = ?`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := st.Exec(Int(int64(i % 2000)))
		if err != nil || r.Len() != 1 {
			b.Fatalf("rows=%d err=%v", r.Len(), err)
		}
	}
}

func BenchmarkSqldbOrderedLimit(b *testing.B) {
	db := newBenchDB(b)
	st, err := db.PrepareStmt(`SELECT id, name FROM item WHERE price < ? ORDER BY id LIMIT 25`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := st.Exec(Float(400))
		if err != nil || r.Len() != 25 {
			b.Fatalf("rows=%d err=%v", r.Len(), err)
		}
	}
}

func BenchmarkSqldbIndexJoin(b *testing.B) {
	db := newBenchDB(b)
	st, err := db.PrepareStmt(
		`SELECT item.name, detail.note FROM item JOIN detail ON detail.item_id = item.id WHERE item.grp = ?`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := st.Exec(Int(int64(i % 50)))
		if err != nil || r.Len() == 0 {
			b.Fatalf("rows=%d err=%v", r.Len(), err)
		}
	}
}

func BenchmarkSqldbSnapshotRestore(b *testing.B) {
	db := newBenchDB(b)
	snap := db.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := New()
		fresh.Restore(snap)
	}
}

// Alloc guards: a SELECT's Result is the caller's value; it allocates one
// slice of rows and — unless it is a single-table SELECT *, whose rows are
// the stored slices — one slab of values, whatever its row count, and a
// SELECT * of one row nothing at all. Everything else an execution needs is
// plan scratch. A reintroduced per-row or per-statement allocation trips
// these.

func allocGuard(t *testing.T, db *DB, ceiling float64, wantRows int, sql string, args ...Value) {
	t.Helper()
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	st, err := db.PrepareStmt(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := st.Exec(args...); err != nil || res.Len() != wantRows {
		t.Fatalf("%s: %d rows, want %d (err %v)", sql, res.Len(), wantRows, err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := st.Exec(args...); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Fatalf("%s allocates %.1f/op for %d rows, ceiling %.0f", sql, avg, wantRows, ceiling)
	}
}

func TestPointLookupAllocGuard(t *testing.T) {
	allocGuard(t, newBenchDB(t), 2, 1, `SELECT name, price FROM item WHERE id = ?`, Int(7))
}

func TestOrderedLimitAllocGuard(t *testing.T) {
	db := newBenchDB(t)
	for _, rows := range []int{5, 500} {
		limit := strconv.Itoa(rows)
		// An index-ordered walk, a sort by stored values and a sort by an
		// evaluated key.
		allocGuard(t, db, 2, rows, `SELECT id FROM item ORDER BY id LIMIT `+limit)
		allocGuard(t, db, 1, rows, `SELECT * FROM item WHERE price < ? ORDER BY name DESC, grp LIMIT `+limit, Float(400))
		allocGuard(t, db, 2, rows, `SELECT id, price * 2 FROM item ORDER BY 0 - price, id LIMIT `+limit)
	}
}

func TestSelectStarAllocGuard(t *testing.T) {
	db := newBenchDB(t)
	allocGuard(t, db, 0, 1, `SELECT * FROM item WHERE id = ?`, Int(7))
	allocGuard(t, db, 1, 500, `SELECT * FROM item ORDER BY id DESC LIMIT 500`)
	allocGuard(t, db, 1, 500, `SELECT * FROM item WHERE price < ? ORDER BY name DESC, grp LIMIT 500`, Float(400))
	// The keyword search walks 1,925 rows for 25: once the first execution
	// has folded the rows it read, LIKE allocates nothing.
	allocGuard(t, db, 1, 25, `SELECT * FROM item WHERE name LIKE ? OR name LIKE ? ORDER BY id LIMIT 25`, Str("%none%"), Str("%M-19%"))
}

// A one-row SELECT * allocates nothing: the Result is the caller's value and
// its row list is the view the stored row built when its values were
// installed. A point projection is its slab and row list. Arguments passed
// variadically are copied into the plan, so the caller's slice stays on its
// stack.
func TestOneRowResultAllocGuard(t *testing.T) {
	db := newBenchDB(t)
	allocGuard(t, db, 0, 1, `SELECT * FROM item WHERE id = ?`, Int(7))
	allocGuard(t, db, 2, 1, `SELECT name, price FROM item WHERE id = ?`, Int(7))
	id := int64(7)
	avg := testing.AllocsPerRun(100, func() {
		if res, err := db.Exec(`SELECT * FROM item WHERE id = ?`, Int(id)); err != nil || res.Len() != 1 {
			t.Fatalf("point select: %v", err)
		}
	})
	if avg > 0 {
		t.Fatalf("a point SELECT * through DB.Exec with a variadic argument allocates %.1f/op, want 0", avg)
	}
}

func TestIndexJoinAllocGuard(t *testing.T) {
	allocGuard(t, newBenchDB(t), 3, 120,
		`SELECT item.name, detail.note FROM item JOIN detail ON detail.item_id = item.id WHERE item.grp = ? ORDER BY detail.id DESC`, Int(3))
}
