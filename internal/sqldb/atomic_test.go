package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Property: a randomized sequence of statements that each fail part-way —
// multi-row inserts whose last row repeats a key, updates whose second row
// takes the key the first took — leaves the table contents and its indexes
// identical to the snapshot before them.
func TestPropertyRollbackRestoresSnapshot(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		db := New()
		if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`); err != nil {
			return false
		}
		if _, err := db.Exec(`CREATE INDEX idx_v ON t (v)`); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Int(int64(rng.Intn(5)))); err != nil {
				return false
			}
		}
		snapshot := dumpTable(t, db)
		ops := int(opsRaw%30) + 1
		for i := 0; i < ops; i++ {
			var err error
			switch rng.Intn(2) {
			case 0:
				n := 1 + rng.Intn(4)
				args := make([]Value, 0, 2*n+2)
				for k := 0; k < n; k++ {
					args = append(args, Int(int64(100+k)), Int(int64(rng.Intn(5))))
				}
				args = append(args, Int(int64(rng.Intn(20))), Int(int64(rng.Intn(5))))
				_, err = db.Exec(`INSERT INTO t VALUES (?, ?)`+strings.Repeat(`, (?, ?)`, n), args...)
			case 1:
				a, b := rng.Intn(20), rng.Intn(19)
				if b >= a {
					b++
				}
				_, err = db.Exec(`UPDATE t SET v = ?, id = ? WHERE id = ? OR id = ?`,
					Int(int64(rng.Intn(5))), Int(int64(100+rng.Intn(5))), Int(int64(a)), Int(int64(b)))
			}
			if !errors.Is(err, ErrDuplicateKey) {
				return false
			}
		}
		checkAllIndexes(t, db)
		return dumpTable(t, db) == snapshot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// dumpTable renders table t deterministically, including a check that the
// secondary index agrees with a full scan.
func dumpTable(t *testing.T, db *DB) string {
	t.Helper()
	r, err := db.Exec(`SELECT id, v FROM t ORDER BY id`)
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	out := ""
	for _, row := range r.Rows {
		out += fmt.Sprintf("%d=%d;", row[0].AsInt(), row[1].AsInt())
	}
	// Cross-check: for each v bucket, index probe count equals scan count.
	for v := 0; v < 5; v++ {
		idx, err := db.Exec(`SELECT id FROM t WHERE v = ?`, Int(int64(v)))
		if err != nil {
			t.Fatalf("probe: %v", err)
		}
		out += fmt.Sprintf("v%d:%d;", v, idx.Len())
	}
	return out
}

// Property: index probes and full scans return the same row sets.
func TestPropertyIndexScanEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		db := New()
		if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT)`); err != nil {
			return false
		}
		if _, err := db.Exec(`CREATE INDEX idx_grp ON t (grp)`); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 1
		for i := 0; i < n; i++ {
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?)`,
				Int(int64(i)), Int(int64(rng.Intn(6))), Int(int64(rng.Intn(100)))); err != nil {
				return false
			}
		}
		// Random updates and failed inserts to exercise index maintenance.
		for i := 0; i < n/4; i++ {
			if _, err := db.Exec(`UPDATE t SET grp = ? WHERE id = ?`, Int(int64(rng.Intn(6))), Int(int64(rng.Intn(n)))); err != nil {
				return false
			}
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, 0), (?, 0, 0)`, Int(int64(n+i)), Int(int64(rng.Intn(6))), Int(int64(rng.Intn(n)))); !errors.Is(err, ErrDuplicateKey) {
				return false
			}
		}
		for g := 0; g < 6; g++ {
			// Indexed probe: grp = ? triggers the hash index.
			probed, err := db.Exec(`SELECT id FROM t WHERE grp = ? ORDER BY id`, Int(int64(g)))
			if err != nil {
				return false
			}
			// Force a scan with a predicate the optimizer cannot index.
			scanned, err := db.Exec(`SELECT id FROM t WHERE grp >= ? AND grp <= ? ORDER BY id`, Int(int64(g)), Int(int64(g)))
			if err != nil {
				return false
			}
			if probed.Len() != scanned.Len() {
				return false
			}
			for i := range probed.Rows {
				if probed.Rows[i][0].AsInt() != scanned.Rows[i][0].AsInt() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is antisymmetric and reflexive across kinds.
func TestPropertyCompareTotalOrder(t *testing.T) {
	vals := func(x int64, f float64, s string, b bool) []Value {
		return []Value{Null(), Int(x), Float(f), Str(s), Bool(b)}
	}
	f := func(x int64, fl float64, s string, b bool, y int64, g float64, u string, c bool) bool {
		as := vals(x, fl, s, b)
		bs := vals(y, g, u, c)
		for _, a := range as {
			for _, bv := range bs {
				ab, ba := Compare(a, bv), Compare(bv, a)
				if ab != -ba {
					return false
				}
			}
			if Compare(a, a) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLikeMatchTable(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"", "", true},
		{"abc", "%%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"HeLLo", "hello", true}, // case-insensitive
		{"cat food", "%cat%", true},
		{"dog food", "%cat%", false},
		// Non-ASCII operands fold case through ToLower.
		{"ÄRN", "ärn", true},
		{"Łódź", "łó%", true},
		{"ärn", "a%", false},
		{"zoë", "ZO_%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestMultiRowInsertIsAtomic(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE INDEX idx_users_region ON users (region)`)
	const memoised = `SELECT * FROM users WHERE rating > ?`
	before := mustExec(t, db, memoised, Int(0))
	walk := fingerprint(mustExec(t, db, `SELECT id, nick FROM users ORDER BY id DESC`))
	// The third row collides with an existing primary key: nothing must land.
	_, err := db.Exec(`INSERT INTO users VALUES (50, 'x', 'east', 0), (51, 'y', 'north', 1), (1, 'dup', 'east', 0)`)
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
	checkAllIndexes(t, db)
	// A point probe and an index-ordered walk see exactly the rows before.
	for _, id := range []int64{50, 51} {
		if r := mustExec(t, db, `SELECT id FROM users WHERE id = ?`, Int(id)); r.Len() != 0 {
			t.Fatalf("row %d persisted after the failure", id)
		}
	}
	if r := mustExec(t, db, `SELECT nick FROM users WHERE id = 1`); r.Len() != 1 || r.Rows[0][0].S != "ann" {
		t.Fatalf("row 1: %v", r.Rows)
	}
	if r := mustExec(t, db, `SELECT id FROM users WHERE region = 'north'`); r.Len() != 0 || !r.IndexUsed {
		t.Fatalf("region probe: rows=%v indexed=%v", r.Rows, r.IndexUsed)
	}
	if got := fingerprint(mustExec(t, db, `SELECT id, nick FROM users ORDER BY id DESC`)); got != walk {
		t.Fatalf("ordered walk:\n%s\nwant\n%s", got, walk)
	}
	if r := mustExec(t, db, `SELECT * FROM users`); r.Len() != 3 {
		t.Fatalf("rows = %d, want 3", r.Len())
	}
	// The memoised SELECT * returns what it returned before, as a fresh
	// execution does.
	if after := mustExec(t, db, memoised, Int(0)); fingerprint(after) != fingerprint(before) {
		t.Fatalf("memoised read:\n%s\nwant\n%s", fingerprint(after), fingerprint(before))
	}
	checkFresh(t, db, memoised, Int(0))
	// The rows the statement dropped can be inserted again and found.
	mustExec(t, db, `INSERT INTO users VALUES (50, 'x', 'east', 0), (51, 'y', 'north', 1)`)
	if r := mustExec(t, db, `SELECT nick FROM users WHERE id = 51`); r.Len() != 1 || r.Rows[0][0].S != "y" {
		t.Fatalf("reinserted row 51: %v", r.Rows)
	}
	if r := mustExec(t, db, `SELECT id FROM users WHERE region = 'north'`); !equalInts(intColumn(r, 0), []int64{51}) {
		t.Fatalf("reinserted region probe: %v", r.Rows)
	}
	checkAllIndexes(t, db)
}

func TestUpdateStatementIsAtomic(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`CREATE UNIQUE INDEX idx_nick2 ON users (nick)`); err != nil {
		t.Fatal(err)
	}
	// Renaming everyone to the same nick must fail on the second row and
	// leave the first row unchanged.
	_, err := db.Exec(`UPDATE users SET nick = 'same' WHERE id = 1 OR id = 2`)
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
	r, _ := db.Exec(`SELECT nick FROM users WHERE id = 1`)
	if r.Rows[0][0].S != "ann" {
		t.Fatalf("nick = %v, want statement rolled back", r.Rows[0][0])
	}
	// Index must be consistent after the internal rollback.
	r, _ = db.Exec(`SELECT id FROM users WHERE nick = 'same'`)
	if r.Len() != 0 {
		t.Fatal("stale index entry after statement rollback")
	}
	r, _ = db.Exec(`SELECT id FROM users WHERE nick = 'ann'`)
	if r.Len() != 1 {
		t.Fatal("index lost original entry")
	}
}

func TestUpdateValidationFailureLeavesTableUntouched(t *testing.T) {
	db := newTestDB(t)
	// qty is NOT NULL via... it is not declared NOT NULL in items; use
	// users.nick which is NOT NULL.
	_, err := db.Exec(`UPDATE users SET nick = NULL`)
	if !errors.Is(err, ErrNotNull) {
		t.Fatalf("err = %v", err)
	}
	r, _ := db.Exec(`SELECT id FROM users WHERE nick >= ''`)
	if r.Len() != 3 {
		t.Fatal("update applied despite validation failure")
	}
}
