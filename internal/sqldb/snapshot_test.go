package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

func seedSnapshotDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE kv (id INT PRIMARY KEY, v TEXT, n INT)`)
	mustExec(t, db, `CREATE INDEX idx_kv_v ON kv (v)`)
	mustExec(t, db, `INSERT INTO kv VALUES (1, 'a', 10), (2, 'b', 20), (3, 'a', 30)`)
	// A failed two-row insert leaves its first row's index entries behind
	// unless it removes them; a snapshot would carry them.
	if _, err := db.Exec(`INSERT INTO kv VALUES (4, 'a', 40), (2, 'x', 0)`); err == nil {
		t.Fatal("duplicate key accepted")
	}
	mustExec(t, db, `UPDATE kv SET v = 'c' WHERE id = 2`)
	return db
}

func queryAll(t *testing.T, db *DB) string {
	t.Helper()
	r, err := db.Exec(`SELECT id, v, n FROM kv ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, row := range r.Rows {
		for _, v := range row {
			out += v.String() + "|"
		}
		out += "\n"
	}
	return out
}

func TestSnapshotRestoreReproducesState(t *testing.T) {
	src := seedSnapshotDB(t)
	snap := src.Snapshot()

	dst := New()
	dst.Restore(snap)
	if got, want := queryAll(t, dst), queryAll(t, src); got != want {
		t.Fatalf("restored contents differ:\n%s\nvs\n%s", got, want)
	}
	checkAllIndexes(t, dst)

	// Index probes must work against the copied ordered structure.
	r, err := dst.Exec(`SELECT id FROM kv WHERE v = ?`, Str("a"))
	if err != nil {
		t.Fatal(err)
	}
	if !r.IndexUsed || r.Len() != 2 {
		t.Fatalf("indexed probe on restored db: used=%v rows=%v", r.IndexUsed, r.Rows)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	src := seedSnapshotDB(t)
	snap := src.Snapshot()
	want := queryAll(t, src)

	a := New()
	a.Restore(snap)
	mustExec(t, a, `UPDATE kv SET v = 'zzz', n = 99 WHERE id = 1`)
	mustExec(t, a, `UPDATE kv SET v = 'b' WHERE id = 3`)
	mustExec(t, a, `INSERT INTO kv VALUES (7, 'q', 70)`)

	// Neither the source nor a second restore may see a's writes.
	if got := queryAll(t, src); got != want {
		t.Fatalf("source mutated through snapshot:\n%s", got)
	}
	b := New()
	b.Restore(snap)
	if got := queryAll(t, b); got != want {
		t.Fatalf("second restore polluted:\n%s", got)
	}
	checkAllIndexes(t, a)
	checkAllIndexes(t, b)
}

func TestSnapshotProfileReplaysIntoObserver(t *testing.T) {
	// Observer streams must be indistinguishable between SQL-replayed and
	// snapshot-restored seeding — the metrics byte-identity requirement.
	tmpl := New()
	tmpl.RecordProfile(true)
	var replayed []StatementInfo
	seedInto := func(db *DB) {
		mustExec(t, db, `CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)`)
		mustExec(t, db, `INSERT INTO kv VALUES (1, 'a'), (2, 'b')`)
		mustExec(t, db, `UPDATE kv SET v = 'c' WHERE id = 2`)
	}
	seedInto(tmpl)
	snap := tmpl.Snapshot()

	restored := New()
	restored.SetObserver(func(st StatementInfo) { replayed = append(replayed, st) })
	restored.Restore(snap)

	var direct []StatementInfo
	ref := New()
	ref.SetObserver(func(st StatementInfo) { direct = append(direct, st) })
	seedInto(ref)

	if len(replayed) != len(direct) {
		t.Fatalf("replayed %d infos, direct seeding produced %d", len(replayed), len(direct))
	}
	// Identities are per database; a replayed one names the same text.
	for i := range direct {
		r, d := replayed[i], direct[i]
		if r.Stmt == nil || d.Stmt == nil || r.Stmt.SQL != d.Stmt.SQL {
			t.Fatalf("info %d: statement %+v vs %+v", i, r.Stmt, d.Stmt)
		}
		r.Stmt, d.Stmt = nil, nil
		if r != d {
			t.Fatalf("info %d differs: %+v vs %+v", i, r, d)
		}
	}
}

func TestRestoreInvalidatesCachedPlans(t *testing.T) {
	db := seedSnapshotDB(t)
	snap := db.Snapshot()
	q := `SELECT v FROM kv WHERE id = ?`
	if _, err := db.Exec(q, Int(1)); err != nil {
		t.Fatal(err)
	}
	r, err := db.Exec(q, Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if !r.PlanCached {
		t.Fatal("expected a plan-cache hit before restore")
	}
	db.Restore(snap)
	r2, err := db.Exec(q, Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if r2.PlanCached {
		t.Fatal("restore replaces tables; stale plans must not survive it")
	}
	if r2.Len() != 1 || r2.Rows[0][0].S != "a" {
		t.Fatalf("rows: %v", r2.Rows)
	}
}

func TestRestoreDoesNotFireWriteHook(t *testing.T) {
	src := seedSnapshotDB(t)
	snap := src.Snapshot()
	dst := New()
	fired := 0
	dst.SetWriteHook(func(sql string, args []Value) { fired++ })
	dst.Restore(snap)
	if fired != 0 {
		t.Fatalf("restore fired the write hook %d times; it is state transfer, not execution", fired)
	}
}

func TestConcurrentRestoresShareSnapshot(t *testing.T) {
	src := seedSnapshotDB(t)
	snap := src.Snapshot()
	want := queryAll(t, src)
	done := make(chan string, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			db := New()
			db.Restore(snap)
			if i%2 == 0 {
				db.Exec(`UPDATE kv SET n = ? WHERE id = 1`, Int(int64(i)))
				db.Exec(`INSERT INTO kv VALUES (?, 'x', 0)`, Int(int64(100+i)))
			}
			r, err := db.Exec(`SELECT id FROM kv WHERE v = ?`, Str("a"))
			if err != nil || r.Len() == 0 {
				done <- "probe failed"
				return
			}
			done <- ""
		}(i)
	}
	for i := 0; i < 8; i++ {
		if msg := <-done; msg != "" {
			t.Fatal(msg)
		}
	}
	if got := queryAll(t, src); got != want {
		t.Fatalf("source mutated by concurrent restores:\n%s", got)
	}
}

// slots returns the addresses of the row struct and the first value a
// one-row write stored: the block slots it took.
func slots(res Result) (*[]Value, *Value) { return &res.Rows[0], &res.Rows[0][0] }

// TestRestoredDatabasesShareNoSlot: two databases restored from one snapshot
// and written at once, more writes than a block holds, store every row in
// slots of their own: no row struct or value slot of one is the other's, or
// handed out twice, and neither sees the other's rows.
func TestRestoredDatabasesShareNoSlot(t *testing.T) {
	snap := seedSnapshotDB(t).Snapshot()
	dbs := [2]*DB{New(), New()}
	var taken [2]map[any]bool
	var wg sync.WaitGroup
	for i, db := range dbs {
		db.Restore(snap)
		taken[i] = map[any]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 2 * valBlock {
				id := int64(1000*(i+1) + k)
				ins, err1 := db.Exec(`INSERT INTO kv VALUES (?, 'w', ?)`, Int(id), Int(int64(i)))
				upd, err2 := db.Exec(`UPDATE kv SET n = ? WHERE id = ?`, Int(id), Int(int64(1+k%3)))
				if err := errors.Join(err1, err2); err != nil {
					t.Error(err)
					return
				}
				for _, res := range []Result{ins, upd} {
					r, v := slots(res)
					if taken[i][r] || taken[i][v] {
						t.Errorf("database %d: a slot was handed out twice", i)
						return
					}
					taken[i][r], taken[i][v] = true, true
				}
			}
		}()
	}
	wg.Wait()
	for slot := range taken[0] {
		if taken[1][slot] {
			t.Fatal("two databases restored from one snapshot stored rows in one slot")
		}
	}
	for i, db := range dbs {
		res := mustExec(t, db, `SELECT id FROM kv WHERE n = ?`, Int(int64(1-i)))
		for _, row := range res.Rows {
			if row[0].AsInt() >= 1000 {
				t.Fatalf("database %d holds row %d, which the other wrote", i, row[0].AsInt())
			}
		}
		checkAllIndexes(t, db)
	}
}

// TestResultsSurviveLaterWritesInTheirBlock: rows returned before later
// writes into the same blocks stay as they were read, through a failed
// multi-row INSERT and a failed multi-row UPDATE that each waste slots, and
// through enough writes to fill the blocks; every row handed out is
// full-capped, so no append reaches a neighbour's slot.
func TestResultsSurviveLaterWritesInTheirBlock(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE kv (id INT PRIMARY KEY, v TEXT, n INT NOT NULL)`)
	mustExec(t, db, `CREATE UNIQUE INDEX idx_kv_v ON kv (v)`)
	var held, want [][]Value
	hold := func(res Result) {
		for _, row := range res.Rows {
			if cap(row) != len(row) {
				t.Fatalf("a stored row has capacity %d past its %d values", cap(row), len(row))
			}
			held, want = append(held, row), append(want, slices.Clone(row))
		}
	}
	hold(mustExec(t, db, `INSERT INTO kv VALUES (1, 'a', 1)`))
	hold(mustExec(t, db, `INSERT INTO kv VALUES (2, 'b', 2)`))
	hold(mustExec(t, db, `UPDATE kv SET n = 20 WHERE id = 2`))
	hold(mustExec(t, db, `SELECT * FROM kv`))
	for _, bad := range []struct {
		sql  string
		want error
	}{
		{`INSERT INTO kv VALUES (3, 'c', 3), (1, 'd', 4)`, ErrDuplicateKey},
		{`UPDATE kv SET v = 'z' WHERE n > 0`, ErrDuplicateKey},
		{`UPDATE kv SET n = NULL WHERE n > 0`, ErrNotNull},
	} {
		if _, err := db.Exec(bad.sql); !errors.Is(err, bad.want) {
			t.Fatalf("%s: %v, want %v", bad.sql, err, bad.want)
		}
	}
	for k := range 2 * valBlock {
		hold(mustExec(t, db, `INSERT INTO kv VALUES (?, ?, ?)`, Int(int64(10+k)), Str(fmt.Sprint("w", k)), Int(int64(k))))
		hold(mustExec(t, db, `UPDATE kv SET n = ? WHERE id = 1`, Int(int64(k))))
	}
	for i := range held {
		if !slices.Equal(held[i], want[i]) {
			t.Fatalf("held row %d is %v, read as %v: a later write reached its slot", i, held[i], want[i])
		}
	}
	checkAllIndexes(t, db)
}
