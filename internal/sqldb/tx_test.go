package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTxCommitKeepsEffects(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if _, err := tx.Exec(`INSERT INTO users VALUES (9, 'zed', 'east', 0)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE items SET qty = qty - 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Query(`SELECT id FROM users`)
	if r.Len() != 4 {
		t.Fatalf("count = %d", r.Len())
	}
	r, _ = db.Query(`SELECT qty FROM items WHERE id = 1`)
	if r.Rows[0][0].AsInt() != 2 {
		t.Fatalf("qty = %v", r.Rows[0][0])
	}
}

func TestTxRollbackUndoesEverything(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if _, err := tx.Exec(`INSERT INTO users VALUES (9, 'zed', 'east', 0)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE items SET qty = qty - 1, category = 'moved' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`DELETE FROM bids WHERE item_id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Query(`SELECT id FROM users`)
	if r.Len() != 3 {
		t.Fatalf("users = %d after rollback", r.Len())
	}
	r, _ = db.Query(`SELECT qty, category FROM items WHERE id = 1`)
	if r.Rows[0][0].AsInt() != 3 || r.Rows[0][1].S != "sports" {
		t.Fatalf("item not restored: %v", r.Rows[0])
	}
	r, _ = db.Query(`SELECT id FROM bids WHERE item_id = 1`)
	if r.Len() != 2 {
		t.Fatalf("bids = %d after rollback", r.Len())
	}
	// Indexes must be restored too.
	r, _ = db.Query(`SELECT name FROM items WHERE category = 'sports'`)
	if r.Len() != 2 {
		t.Fatalf("index not restored: %v", r.Rows)
	}
}

func TestTxRollbackRestoresIndexOnUpdatedKey(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if _, err := tx.Exec(`UPDATE items SET category = 'garden' WHERE id = 3`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Query(`SELECT id FROM items WHERE category = 'garden'`)
	if r.Len() != 0 {
		t.Fatal("stale index entry after rollback")
	}
	r, _ = db.Query(`SELECT id FROM items WHERE category = 'home'`)
	if r.Len() != 2 {
		t.Fatal("index entry missing after rollback")
	}
}

func TestTxDoneErrors(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`SELECT * FROM users`); !errors.Is(err, ErrTxDone) {
		t.Fatalf("err = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("err = %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("err = %v", err)
	}
}

func TestTxRollbackDeleteThenReinsertSamePK(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if _, err := tx.Exec(`DELETE FROM users WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO users VALUES (1, 'ann2', 'west', 99)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Query(`SELECT nick FROM users WHERE id = 1`)
	if r.Len() != 1 || r.Rows[0][0].S != "ann" {
		t.Fatalf("pk row not restored: %v", r.Rows)
	}
}

// Property: a randomized sequence of inserts/updates/deletes inside a
// transaction followed by rollback leaves the table contents identical to
// the pre-transaction snapshot.
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
		tx := db.Begin()
		ops := int(opsRaw%30) + 1
		nextID := int64(100)
		for i := 0; i < ops; i++ {
			switch rng.Intn(3) {
			case 0:
				if _, err := tx.Exec(`INSERT INTO t VALUES (?, ?)`, Int(nextID), Int(int64(rng.Intn(5)))); err != nil {
					return false
				}
				nextID++
			case 1:
				if _, err := tx.Exec(`UPDATE t SET v = ? WHERE id = ?`, Int(int64(rng.Intn(5))), Int(int64(rng.Intn(25)))); err != nil {
					return false
				}
			case 2:
				if _, err := tx.Exec(`DELETE FROM t WHERE id = ?`, Int(int64(rng.Intn(25)))); err != nil {
					return false
				}
			}
		}
		if err := tx.Rollback(); err != nil {
			return false
		}
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
	r, err := db.Query(`SELECT id, v FROM t ORDER BY id`)
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	out := ""
	for _, row := range r.Rows {
		out += fmt.Sprintf("%d=%d;", row[0].AsInt(), row[1].AsInt())
	}
	// Cross-check: for each v bucket, index probe count equals scan count.
	for v := 0; v < 5; v++ {
		idx, err := db.Query(`SELECT id FROM t WHERE v = ?`, Int(int64(v)))
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
		// Random deletes to exercise tombstone handling in indexes.
		for i := 0; i < n/4; i++ {
			if _, err := db.Exec(`DELETE FROM t WHERE id = ?`, Int(int64(rng.Intn(n)))); err != nil {
				return false
			}
		}
		for g := 0; g < 6; g++ {
			// Indexed probe: grp = ? triggers the hash index.
			probed, err := db.Query(`SELECT id FROM t WHERE grp = ? ORDER BY id`, Int(int64(g)))
			if err != nil {
				return false
			}
			// Force a scan with a predicate the optimizer cannot index.
			scanned, err := db.Query(`SELECT id FROM t WHERE grp + 0 = ? ORDER BY id`, Int(int64(g)))
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
	// Second row collides with an existing primary key: nothing must land.
	_, err := db.Exec(`INSERT INTO users VALUES (50, 'x', 'east', 0), (1, 'dup', 'east', 0)`)
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
	r, _ := db.Query(`SELECT id FROM users WHERE id = 50`)
	if r.Len() != 0 {
		t.Fatal("partial insert persisted after failure")
	}
	n, _ := db.RowCount("users")
	if n != 3 {
		t.Fatalf("rows = %d, want 3", n)
	}
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
	r, _ := db.Query(`SELECT nick FROM users WHERE id = 1`)
	if r.Rows[0][0].S != "ann" {
		t.Fatalf("nick = %v, want statement rolled back", r.Rows[0][0])
	}
	// Index must be consistent after the internal rollback.
	r, _ = db.Query(`SELECT id FROM users WHERE nick = 'same'`)
	if r.Len() != 0 {
		t.Fatal("stale index entry after statement rollback")
	}
	r, _ = db.Query(`SELECT id FROM users WHERE nick = 'ann'`)
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
	r, _ := db.Query(`SELECT id FROM users WHERE nick >= ''`)
	if r.Len() != 3 {
		t.Fatal("update applied despite validation failure")
	}
}
