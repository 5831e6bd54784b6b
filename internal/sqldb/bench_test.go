package sqldb

import (
	"fmt"
	"math"
	"runtime"
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

// BenchmarkSqldbOrderedLimit writes to the walked table between walks, so
// every walk misses the memo; the point UPDATE is timed too.
func BenchmarkSqldbOrderedLimit(b *testing.B) {
	db := newBenchDB(b)
	st, err := db.PrepareStmt(`SELECT id, name FROM item WHERE price < ? ORDER BY id LIMIT 25`)
	if err != nil {
		b.Fatal(err)
	}
	up, err := db.PrepareStmt(`UPDATE item SET price = ? WHERE id = ?`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := up.Exec(Float(float64(i%500)), Int(int64(i%2000))); err != nil {
			b.Fatal(err)
		}
		r, err := st.Exec(Float(400))
		if err != nil || r.Len() != 25 {
			b.Fatalf("rows=%d err=%v", r.Len(), err)
		}
	}
}

// BenchmarkSqldbIndexJoin writes to the joined table between joins, so
// every join misses the memo; the point UPDATE is timed too.
func BenchmarkSqldbIndexJoin(b *testing.B) {
	db := newBenchDB(b)
	st, err := db.PrepareStmt(
		`SELECT item.name, detail.note FROM item JOIN detail ON detail.item_id = item.id WHERE item.grp = ?`)
	if err != nil {
		b.Fatal(err)
	}
	up, err := db.PrepareStmt(`UPDATE detail SET note = ? WHERE id = ?`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := up.Exec(Str("note"), Int(int64(i%6000))); err != nil {
			b.Fatal(err)
		}
		r, err := st.Exec(Int(int64(i % 50)))
		if err != nil || r.Len() == 0 {
			b.Fatalf("rows=%d err=%v", r.Len(), err)
		}
	}
}

// The keyword search of the alloc guard below: 1,925 rows walked for 25.
const likeSQL = `SELECT * FROM item WHERE name LIKE ? OR name LIKE ? ORDER BY id LIMIT 25`

// BenchmarkSqldbSelectStarMemo repeats catalog reads whose table is never
// written, so every execution after the first per group is a memo hit.
func BenchmarkSqldbSelectStarMemo(b *testing.B) {
	db := newBenchDB(b)
	st, err := db.PrepareStmt(`SELECT * FROM item WHERE grp = ? ORDER BY id`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := st.Exec(Int(int64(i % 50)))
		if err != nil || r.Len() != 40 {
			b.Fatalf("rows=%d err=%v", r.Len(), err)
		}
	}
}

// BenchmarkSqldbProjectionMemo repeats a listing projection whose table is
// never written, so every execution after the first per group is a memo hit.
func BenchmarkSqldbProjectionMemo(b *testing.B) {
	db := newBenchDB(b)
	st, err := db.PrepareStmt(`SELECT id, name, price FROM item WHERE grp = ? ORDER BY price DESC LIMIT 25`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := st.Exec(Int(int64(i % 50)))
		if err != nil || r.Len() != 25 {
			b.Fatalf("rows=%d err=%v", r.Len(), err)
		}
	}
}

// BenchmarkSqldbLikeScan writes to the scanned table between searches, so
// every search misses the memo and scans; the point UPDATE is timed too.
func BenchmarkSqldbLikeScan(b *testing.B) {
	db := newBenchDB(b)
	st, err := db.PrepareStmt(likeSQL)
	if err != nil {
		b.Fatal(err)
	}
	up, err := db.PrepareStmt(`UPDATE item SET price = ? WHERE id = ?`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := up.Exec(Float(float64(i%500)), Int(int64(i%2000))); err != nil {
			b.Fatal(err)
		}
		r, err := st.Exec(Str("%none%"), Str("%M-19%"))
		if err != nil || r.Len() != 25 || r.ScannedActual != 1925 {
			b.Fatalf("rows=%d scanned=%d err=%v", r.Len(), r.ScannedActual, err)
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
// these. Each timed execution is a real one: before it, every table's
// version moves as a row write would move it, so no memoised SELECT is
// served from its plan's memo (the memo's hit has its own guard).

func allocGuard(t *testing.T, db *DB, ceiling float64, wantRows int, sql string, args ...Value) {
	t.Helper()
	if avg := allocsPerExec(t, db, true, wantRows, sql, args...); avg > ceiling {
		t.Fatalf("%s allocates %.1f/op for %d rows, ceiling %.0f", sql, avg, wantRows, ceiling)
	}
}

// allocsPerExec runs sql once, then returns its average allocations over 100
// more executions, each after a simulated write to every table if stale.
func allocsPerExec(t *testing.T, db *DB, stale bool, wantRows int, sql string, args ...Value) float64 {
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
	return allocsPerRun(100, func() {
		if stale {
			for _, tb := range db.tables {
				tb.version++
			}
		}
		if _, err := st.Exec(args...); err != nil {
			t.Fatal(err)
		}
	})
}

// allocsPerRun is testing.AllocsPerRun without its truncation: after one
// warm-up call it runs f runs times at GOMAXPROCS 1 and takes the exact mean
// of runtime.MemStats.Mallocs, so a call that allocates on every other run
// reads 0.5, not 0. Mallocs counts the whole process, and the runtime's own
// background work (the scavenger growing its timer heap) can add a stray
// allocation to one trial, so the least of three trials is returned: the
// call's own allocations show in every one.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return least
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
		allocGuard(t, db, 2, rows, `SELECT id, price > 2 FROM item ORDER BY price > 50, id LIMIT `+limit)
	}
}

func TestSelectStarAllocGuard(t *testing.T) {
	db := newBenchDB(t)
	allocGuard(t, db, 0, 1, `SELECT * FROM item WHERE id = ?`, Int(7))
	allocGuard(t, db, 1, 500, `SELECT * FROM item ORDER BY id DESC LIMIT 500`)
	allocGuard(t, db, 1, 500, `SELECT * FROM item WHERE price < ? ORDER BY name DESC, grp LIMIT 500`, Float(400))
	// The keyword search walks 1,925 rows for 25: once the first execution
	// has folded the rows it read, LIKE allocates nothing.
	allocGuard(t, db, 1, 25, likeSQL, Str("%none%"), Str("%M-19%"))
}

// TestSelectMemoHitAllocGuard: a SELECT its plan memoised — a SELECT *, a
// projection, a join or a DISTINCT — repeated while its tables stand still,
// is served from the memo and allocates nothing.
func TestSelectMemoHitAllocGuard(t *testing.T) {
	db := newBenchDB(t)
	for _, c := range []struct {
		rows int
		sql  string
		args []Value
	}{
		{500, `SELECT * FROM item ORDER BY id DESC LIMIT 500`, nil},
		{500, `SELECT * FROM item WHERE price < ? ORDER BY name DESC, grp LIMIT 500`, []Value{Float(400)}},
		{25, likeSQL, []Value{Str("%none%"), Str("%M-19%")}},
		{25, `SELECT id, name FROM item WHERE price < ? ORDER BY id LIMIT 25`, []Value{Float(400)}},
		{120, `SELECT item.name, detail.note FROM item JOIN detail ON detail.item_id = item.id WHERE item.grp = ?`, []Value{Int(3)}},
		{10, `SELECT DISTINCT price FROM item WHERE grp = ?`, []Value{Int(3)}},
	} {
		if avg := allocsPerExec(t, db, false, c.rows, c.sql, c.args...); avg > 0 {
			t.Fatalf("%s: a memo hit allocates %.1f/op, want 0", c.sql, avg)
		}
		if n := memoEntries(db, c.sql); n != 1 {
			t.Fatalf("%s: %d memo entries, want 1", c.sql, n)
		}
	}
}

// A one-row SELECT * allocates nothing: the Result is the caller's value and
// its row list is the view the stored row struct holds. A point projection
// is its slab and row list. Arguments passed variadically are copied into
// the plan, so the caller's slice stays on its stack.
func TestOneRowResultAllocGuard(t *testing.T) {
	db := newBenchDB(t)
	allocGuard(t, db, 0, 1, `SELECT * FROM item WHERE id = ?`, Int(7))
	allocGuard(t, db, 2, 1, `SELECT name, price FROM item WHERE id = ?`, Int(7))
	id := int64(7)
	avg := allocsPerRun(100, func() {
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

// TestDistinctAllocGuard: a DISTINCT that misses the memo allocates only its
// row list and slab, as any projection: the first-key map and the chain of
// kept rows are plan scratch.
func TestDistinctAllocGuard(t *testing.T) {
	db := newBenchDB(t)
	allocGuard(t, db, 2, 10, `SELECT DISTINCT price FROM item WHERE grp = ?`, Int(3))
	allocGuard(t, db, 2, 50, `SELECT DISTINCT grp FROM item WHERE price < ? ORDER BY grp`, Float(400))
	allocGuard(t, db, 2, 120, `SELECT DISTINCT item.id, detail.id FROM item JOIN detail ON detail.item_id = item.id WHERE item.grp = ?`, Int(3))
}

// A warm write allocates only its share of the database's blocks: a point
// UPDATE's new row struct and value slice are block slots, so it allocates
// 1/rowBlock + cols/valBlock per write (a little less, as slices.Grow rounds
// each block up to its size class), plus at most one block of each kind that
// the timed writes start. A single-row INSERT adds its share of the growth of
// the row list, the primary-key index's map, key order and bucket blocks.
func TestWriteAllocGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	db := newBenchDB(t)
	const runs = 1000
	const update = `UPDATE item SET price = ? WHERE id = ?`
	n := int64(0)
	share := func(cols int) float64 { return 1.0/rowBlock + float64(cols)/valBlock + 2.0/runs }
	if avg := allocsPerRun(runs, func() {
		if n++; mustExec(t, db, update, Float(float64(n)), Int(n%2000)).Rows == nil {
			t.Fatal("the UPDATE returned no row")
		}
	}); avg > share(4) {
		t.Fatalf("a point UPDATE allocates %.4f/op, ceiling %.4f: its share of a row and a value block", avg, share(4))
	}
	mustExec(t, db, `CREATE TABLE note (id INT PRIMARY KEY, body TEXT)`)
	const insert = `INSERT INTO note VALUES (?, ?)`
	id := int64(0)
	if avg := allocsPerRun(4096, func() {
		if id++; mustExec(t, db, insert, Int(id), Str("x")).Rows == nil {
			t.Fatal("the INSERT returned no row")
		}
	}); avg > share(2)+0.02 {
		t.Fatalf("a single-row INSERT allocates %.4f/op, ceiling %.4f", avg, share(2)+0.02)
	}
}
