package sqldb

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
)

// The SELECT memo (select.go) may only ever return what a fresh execution
// returns. The reference for "fresh" is a database restored from a snapshot
// of the same state: its plans are new, so it has memoised nothing.

// resultKey renders everything a Result reports but PlanCached: the
// fingerprint, every counter and the cost.
func resultKey(r Result) string {
	return fmt.Sprintf("%sscanned=%d actual=%d probes=%d index=%v cost=%v",
		fingerprint(r), r.Scanned, r.ScannedActual, r.IndexProbes, r.IndexUsed, r.Cost)
}

// checkFresh runs sql twice on db, the second time a memo hit wherever the
// first memoised, and requires both results to equal, counter for counter,
// a fresh execution on a database restored from db's current state.
func checkFresh(t *testing.T, db *DB, sql string, args ...Value) {
	t.Helper()
	fresh := New()
	fresh.Restore(db.Snapshot())
	want, werr := fresh.Exec(sql, args...)
	for i := 0; i < 2; i++ {
		got, err := db.Exec(sql, args...)
		if (err == nil) != (werr == nil) || resultKey(got) != resultKey(want) {
			t.Fatalf("%s %v, run %d:\ngot   %s (err %v)\nfresh %s (err %v)", sql, args, i+1, resultKey(got), err, resultKey(want), werr)
		}
		if i == 1 && err == nil && !got.PlanCached {
			t.Fatalf("%s %v: a repeated execution did not reuse its plan", sql, args)
		}
	}
}

// memoEntries returns how many argument tuples sql's plan has memoised.
func memoEntries(db *DB, sql string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if pl := db.prepared[sql].st.(*SelectStmt).plan; pl != nil {
		return len(pl.memo)
	}
	return 0
}

// memoised reports whether sql's plan, as of its last execution, holds a
// memo entry for args.
func memoised(db *DB, sql string, args []Value) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	p := db.prepared[sql]
	if p == nil {
		return false
	}
	s, ok := p.st.(*SelectStmt)
	if !ok || s.plan == nil || len(args) > len(memoKey{}.args) {
		return false
	}
	k := memoKey{n: len(args)}
	copy(k.args[:], args)
	_, found := s.plan.memo[k]
	return found
}

// TestSelectMemoInvalidation: after every kind of write to any table a
// statement reads — each row primitive, and a statement that fails part-way
// and undoes what it wrote — and after Restore, CREATE INDEX and a new cost
// model, a memoised SELECT of every shape returns what a fresh execution
// does.
func TestSelectMemoInvalidation(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, grp INT, name TEXT)`)
	mustExec(t, db, `CREATE INDEX ix_t_grp ON t (grp)`)
	for i := 0; i < 12; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?)`, Int(int64(i)), Int(int64(i%3)), Str("n"+strconv.Itoa(i)))
	}
	mustExec(t, db, `CREATE TABLE u (id INT PRIMARY KEY, tid INT, note TEXT)`)
	mustExec(t, db, `CREATE INDEX ix_u_tid ON u (tid)`)
	for i := 0; i < 18; i++ {
		mustExec(t, db, `INSERT INTO u VALUES (?, ?, ?)`, Int(int64(i)), Int(int64(i%12)), Str("u"+strconv.Itoa(i%5)))
	}
	stmts := []string{
		`SELECT * FROM t WHERE grp = ? ORDER BY id`,                                         // probe, then sort
		`SELECT name, id FROM t WHERE grp = ? ORDER BY name DESC`,                           // a projection
		`SELECT t.name, u.note FROM t JOIN u ON u.tid = t.id WHERE t.grp = ? ORDER BY u.id`, // a join: u is read too
		`SELECT DISTINCT u.note, t.grp FROM t JOIN u ON u.tid = t.id WHERE t.grp = ?`,       // DISTINCT over a join
		`SELECT * FROM t WHERE name LIKE ?`,                                                 // full scan
		`SELECT DISTINCT grp FROM t WHERE name LIKE ?`,                                      // DISTINCT over a scan
		`SELECT * FROM t ORDER BY name DESC LIMIT 5`,                                        // no arguments
		`SELECT * FROM t WHERE id = ?`,                                                      // a point lookup: never memoised
		`SELECT * FROM t`,                                                                   // a bare whole-table read: never memoised
		`SELECT note FROM u`,                                                                // and a bare projection
	}
	// stmts[:probed] take a group, stmts[probed:scanned] a pattern, stmts[point]
	// a key and the rest nothing; none from stmts[point] on is memoised.
	const probed, scanned, point = 4, 6, 7
	check := func(step string) {
		t.Helper()
		for _, g := range []int64{0, 1, 2} {
			for _, sql := range stmts[:probed] {
				checkFresh(t, db, sql, Int(g))
			}
			for _, sql := range stmts[probed:scanned] {
				checkFresh(t, db, sql, Str("%"+strconv.FormatInt(g, 10)+"%"))
			}
			checkFresh(t, db, stmts[point], Int(g))
		}
		for _, sql := range stmts[scanned:point] {
			checkFresh(t, db, sql)
		}
		for _, sql := range stmts[point+1:] {
			checkFresh(t, db, sql)
		}
		for _, sql := range stmts[:probed] {
			checkFresh(t, db, sql, Null())
			checkFresh(t, db, sql) // a missing argument is no NULL: an error
		}
		if t.Failed() {
			t.Fatalf("after %s", step)
		}
	}
	check("seeding")
	for _, sql := range stmts[:probed] {
		if n := memoEntries(db, sql); n != 4 {
			t.Fatalf("%s memoised %d argument tuples, want 4: three groups and NULL", sql, n)
		}
	}
	for _, sql := range stmts[point:] {
		if n := memoEntries(db, sql); n != 0 {
			t.Fatalf("%s memoised %d argument tuples, want none", sql, n)
		}
	}

	writes := []struct {
		step string
		sql  string
		args []Value
		fail bool // the statement fails part-way and rolls back
	}{
		{"INSERT", `INSERT INTO t VALUES (?, ?, ?)`, []Value{Int(20), Int(1), Str("n20")}, false},
		{"an UPDATE of an indexed column", `UPDATE t SET grp = ? WHERE id = ?`, []Value{Int(2), Int(4)}, false},
		{"an UPDATE of an unindexed column", `UPDATE t SET name = ? WHERE grp = ?`, []Value{Str("m"), Int(0)}, false},
		{"a multi-row INSERT that fails part-way", `INSERT INTO t VALUES (?, 0, 'x'), (?, 1, 'y')`, []Value{Int(21), Int(3)}, true},
		{"an UPDATE that fails part-way", `UPDATE t SET id = ? WHERE grp = ?`, []Value{Int(30), Int(1)}, true},
		{"an INSERT into the joined table", `INSERT INTO u VALUES (?, ?, ?)`, []Value{Int(30), Int(1), Str("u9")}, false},
		{"an UPDATE of the joined table", `UPDATE u SET note = ? WHERE tid = ?`, []Value{Str("v"), Int(2)}, false},
		{"an INSERT into the joined table that fails part-way", `INSERT INTO u VALUES (?, 0, 'x'), (?, 1, 'y')`, []Value{Int(31), Int(3)}, true},
	}
	for _, w := range writes {
		if _, err := db.Exec(w.sql, w.args...); w.fail != errors.Is(err, ErrDuplicateKey) || !w.fail && err != nil {
			t.Fatalf("%s: %v", w.sql, err)
		}
		check(w.step)
	}

	snap := db.Snapshot()
	mustExec(t, db, `UPDATE t SET grp = ? WHERE grp = ?`, Int(5), Int(1))
	check("an UPDATE of a group")
	db.Restore(snap)
	check("Restore")
	mustExec(t, db, `CREATE INDEX ix_t_name ON t (name)`)
	check("CREATE INDEX")
}

// TestDistinctScratchIsPerExecution: DISTINCT's first-key map and chain of
// kept rows are plan scratch, and each miss starts them empty. Group 1 keeps
// two rows under one first key, so its second copy of (1, x) is found only
// by walking the chain past its head, which group 0's chain must not leave
// entries in.
func TestDistinctScratchIsPerExecution(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE d (id INT PRIMARY KEY, g INT, a INT, b TEXT)`)
	mustExec(t, db, `INSERT INTO d VALUES (0, 0, 1, 'x'), (1, 0, 2, 'x'), (2, 1, 1, 'x'), (3, 1, 1, 'y'), (4, 1, 1, 'x')`)
	const sql = `SELECT DISTINCT a, b FROM d WHERE g = ?`
	for _, g := range []int64{0, 1, 0, 1} {
		checkFresh(t, db, sql, Int(g))
		mustExec(t, db, `UPDATE d SET a = a WHERE id = 0`) // a write: the next run misses
	}
}

// TestSelectMemoIsBounded: a plan memoises at most memoCap argument tuples;
// past that, a new tuple runs unmemoised. A write drops every entry.
func TestSelectMemoIsBounded(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 0), (2, 0)`)
	const sql = `SELECT * FROM t WHERE v < ?`
	for i := 0; i < memoCap+10; i++ {
		mustExec(t, db, sql, Int(int64(i)))
	}
	if n := memoEntries(db, sql); n != memoCap {
		t.Fatalf("%d memo entries, want %d", n, memoCap)
	}
	mustExec(t, db, `UPDATE t SET v = 5 WHERE id = 1`)
	checkFresh(t, db, sql, Int(3))
	checkFresh(t, db, sql, Int(memoCap+5))
	if n := memoEntries(db, sql); n != 2 {
		t.Fatalf("%d memo entries after a write and two tuples, want 2", n)
	}
}

// TestConcurrentSelectMemo runs a SELECT * and a projection of the same
// columns from several goroutines while another writes their table: the memo
// lives on each plan and only db.mu orders its use, which the race detector
// checks (the race job repeats this package), and every result is one of the
// table's states.
func TestConcurrentSelectMemo(t *testing.T) {
	sqls := [2]string{`SELECT * FROM t WHERE grp = ? ORDER BY id`, `SELECT id, grp, v FROM t WHERE grp = ? ORDER BY id`}
	setup := func() *DB {
		db := New()
		mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT)`)
		mustExec(t, db, `CREATE INDEX ix_t_grp ON t (grp)`)
		for i := 0; i < 8; i++ {
			mustExec(t, db, `INSERT INTO t VALUES (?, ?, 0)`, Int(int64(i)), Int(int64(i%2)))
		}
		return db
	}
	// write applies step i of the writer's sequence: an update, an insert or
	// a two-row insert into group 0 that fails on its second row, each one
	// statement.
	write := func(db *DB, i int) error {
		var err error
		switch i % 3 {
		case 0:
			_, err = db.Exec(`UPDATE t SET v = ? WHERE grp = 0`, Int(int64(i)))
		case 1:
			_, err = db.Exec(`INSERT INTO t VALUES (?, 0, ?)`, Int(int64(100+i)), Int(int64(i)))
		default:
			if _, err = db.Exec(`INSERT INTO t VALUES (?, 0, 0), (0, 0, 0)`, Int(int64(100+i))); errors.Is(err, ErrDuplicateKey) {
				err = nil
			}
		}
		return err
	}
	const steps = 150
	// The states, read from a database the same writes reach one at a time.
	ref := setup()
	states := make(map[string]bool)
	for i := 0; i <= steps; i++ {
		if i > 0 {
			if err := write(ref, i); err != nil {
				t.Fatal(err)
			}
		}
		states[fingerprint(mustExec(t, ref, sqls[0], Int(0)))] = true
	}
	stable := fingerprint(mustExec(t, ref, sqls[0], Int(1)))

	db := setup()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= steps; i++ {
			if err := write(db, i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				g := int64((i + w) % 2)
				res, err := db.Exec(sqls[i/2%2], Int(g))
				if err != nil {
					t.Error(err)
					return
				}
				if got := fingerprint(res); g == 0 && !states[got] || g == 1 && got != stable {
					t.Errorf("grp %d: %s is none of the table's states", g, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
