package sqldb

import (
	"fmt"
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

// Alloc guards: the hot read paths must stay allocation-light so thousands
// of simulated statements per run do not thrash the collector. Ceilings are
// generous versus measured values to absorb runtime drift, but tight enough
// to catch a reintroduced per-row or per-plan allocation.

func TestPointLookupAllocGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	db := newBenchDB(t)
	st, err := db.PrepareStmt(`SELECT name, price FROM item WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	arg := Int(7)
	avg := testing.AllocsPerRun(200, func() {
		if _, err := st.Exec(arg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 12 {
		t.Fatalf("point lookup allocates %.1f/op, ceiling 12", avg)
	}
}

func TestOrderedLimitAllocGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	db := newBenchDB(t)
	st, err := db.PrepareStmt(`SELECT id FROM item ORDER BY id LIMIT 25`)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	})
	// ~2 allocs per returned row (row slice + backing) plus fixed overhead.
	if avg > 70 {
		t.Fatalf("ordered LIMIT 25 allocates %.1f/op, ceiling 70", avg)
	}
}

func TestIndexJoinAllocGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	db := newBenchDB(t)
	st, err := db.PrepareStmt(
		`SELECT item.name FROM item JOIN detail ON detail.item_id = item.id WHERE item.grp = ?`)
	if err != nil {
		t.Fatal(err)
	}
	arg := Int(3)
	res, err := st.Exec(arg)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Len()
	if rows == 0 {
		t.Fatal("join returned no rows")
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := st.Exec(arg); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: a retained context + bound copy + output row per match, plus
	// fixed overhead. Anything super-linear in matches trips this.
	ceiling := float64(8*rows + 32)
	if avg > ceiling {
		t.Fatalf("index join allocates %.1f/op for %d rows, ceiling %.0f", avg, rows, ceiling)
	}
}
