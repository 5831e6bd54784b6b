package sqldb

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// What lowering statements to closures could silently break: when an
// unresolvable reference raises, what a result shares with the store, and
// the LIKE fast path.

// TestEvaluationErrorsRaiseOnlyWhenReached: a reference that cannot resolve
// and a missing parameter are errors of the row that evaluates them, not of
// the statement. Over empty tables every statement succeeds; with rows it
// fails exactly when a row reaches the bad operand.
func TestEvaluationErrorsRaiseOnlyWhenReached(t *testing.T) {
	schema := []string{
		`CREATE TABLE a (id INT PRIMARY KEY, v INT, name TEXT)`,
		`CREATE TABLE b (id INT PRIMARY KEY, aid INT, name TEXT)`,
		`CREATE TABLE c (id INT PRIMARY KEY, v INT)`,
		`CREATE INDEX ix_a_v ON a (v)`,
		`CREATE INDEX ix_b_aid ON b (aid)`,
	}
	rows := []string{
		`INSERT INTO a VALUES (1, 10, 'x'), (2, 20, 'y')`,
		`INSERT INTO b VALUES (1, 1, 'p'), (2, 2, 'q')`,
		`INSERT INTO c VALUES (1, 7)`,
	}
	ambiguous := errors.New("ambiguous")
	missing := errors.New("missing parameter")
	cases := []struct {
		path, sql string
		args      []Value
		want      error // with rows; nil: succeeds
	}{
		{"scan", `SELECT * FROM a WHERE ghost = 1`, nil, ErrNoSuchColumn},
		{"scan", `SELECT * FROM a WHERE name = ?`, nil, missing},
		{"scan", `SELECT ghost FROM a`, nil, ErrNoSuchColumn},
		{"scan", `SELECT * FROM a ORDER BY ghost, id`, nil, ErrNoSuchColumn},
		{"scan", `SELECT * FROM a WHERE name = 'x' OR name = 'y' OR ghost = 1`, nil, nil},
		{"scan", `SELECT * FROM a WHERE name = 'z' AND z.ghost = 1`, nil, nil},
		{"probe", `SELECT * FROM a WHERE v = 10 AND ghost = 1`, nil, ErrNoSuchColumn},
		{"probe", `SELECT * FROM a WHERE v = 99 AND ghost = 1`, nil, nil}, // empty bucket
		{"probe", `SELECT * FROM a WHERE v = ? AND name = ?`, []Value{Int(10)}, missing},
		{"probe", `SELECT * FROM a WHERE v = ?`, nil, missing}, // no probe value: scans, then raises
		{"walk", `SELECT * FROM a WHERE ghost = 1 ORDER BY id`, nil, ErrNoSuchColumn},
		{"walk", `SELECT * FROM a WHERE ghost = 1 ORDER BY id LIMIT 0`, nil, nil},
		{"walk", `SELECT a.ghost FROM a ORDER BY v DESC LIMIT 1`, nil, ErrNoSuchColumn},
		{"join", `SELECT a.id FROM a JOIN b ON b.aid = a.id WHERE name = 'x'`, nil, ambiguous},
		{"join", `SELECT a.id FROM a JOIN b ON b.aid = a.id AND b.ghost = 1`, nil, ErrNoSuchColumn},
		{"join", `SELECT a.id FROM a JOIN b ON b.aid = a.v WHERE name = 'x'`, nil, nil}, // no pair survives ON
		// An ON condition sees its own table prefix: v is a.v there, and
		// ambiguous only once c is bound too.
		{"join", `SELECT a.id FROM a JOIN b ON b.aid = a.id AND v > 0 JOIN c ON c.id = a.id`, nil, nil},
		{"join", `SELECT a.id FROM a JOIN b ON b.aid = a.id JOIN c ON c.id = a.id AND v > 0`, nil, ambiguous},
		{"join", `SELECT a.id FROM a JOIN b ON b.aid = a.id JOIN c ON c.id = a.id WHERE v > 0`, nil, ambiguous},
		{"join", `SELECT a.id FROM a JOIN b ON b.aid = a.id ORDER BY id`, nil, ambiguous},
		{"join", `SELECT z.id FROM a JOIN b ON b.aid = a.id`, nil, ErrNoSuchColumn},
		{"update", `UPDATE a SET v = ghost WHERE id = 1`, nil, ErrNoSuchColumn},
		{"update", `UPDATE a SET v = ghost WHERE id = 9`, nil, nil},
		{"update", `UPDATE a SET v = ? WHERE name = 'x'`, nil, missing},
		{"update", `UPDATE a SET v = 1 WHERE ghost = 1`, nil, ErrNoSuchColumn},
		{"update", `UPDATE b SET aid = 1 WHERE b.ghost = 1`, nil, ErrNoSuchColumn},
		{"update", `UPDATE b SET aid = 2 WHERE aid = 9 AND ghost = 1`, nil, nil},
		{"update", `UPDATE b SET aid = 3 WHERE name = ?`, nil, missing},
	}
	for _, c := range cases {
		t.Run(c.path+"/"+c.sql, func(t *testing.T) {
			db := New()
			for _, s := range schema {
				mustExec(t, db, s)
			}
			// Prepared once: the same compiled plan serves both executions.
			st, err := db.PrepareStmt(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Exec(c.args...); err != nil {
				t.Fatalf("over empty tables: %v", err)
			}
			for _, s := range rows {
				mustExec(t, db, s)
			}
			before := dumpAB(t, db)
			_, err = st.Exec(c.args...)
			switch {
			case c.want == nil:
				if err != nil {
					t.Fatalf("with rows: %v", err)
				}
				return
			case err == nil:
				t.Fatalf("with rows: succeeded, want %v", c.want)
			case c.want == ambiguous || c.want == missing:
				if !strings.Contains(err.Error(), c.want.Error()) {
					t.Fatalf("with rows: %v, want %v", err, c.want)
				}
			case !errors.Is(err, c.want):
				t.Fatalf("with rows: %v, want %v", err, c.want)
			}
			if after := dumpAB(t, db); after != before {
				t.Fatalf("a failed statement changed the tables:\n%s\nwas\n%s", after, before)
			}
		})
	}
}

func dumpAB(t *testing.T, db *DB) string {
	t.Helper()
	return fingerprint(mustExec(t, db, `SELECT * FROM a`)) + fingerprint(mustExec(t, db, `SELECT * FROM b`))
}

// scribble overwrites every value of a result that owns its rows.
func scribble(r Result) {
	for _, row := range r.Rows {
		for j := range row {
			row[j] = Str("scribbled")
		}
	}
}

// isStar reports whether sql is a single-table SELECT * without DISTINCT,
// whose result rows are the stored value slices.
func isStar(sql string) bool {
	st, err := Parse(sql)
	s, ok := st.(*SelectStmt)
	return err == nil && ok && len(s.From) == 1 && len(s.Items) == 1 && s.Items[0].Star && !s.Distinct
}

// checkResultIsSnapshot holds res, which db just returned for sql, to the
// result contract. A SELECT * row is a stored slice whose capacity is its
// length, so a caller's append copies; any other row is in a slab the result
// owns, so scribbling on it changes no later execution. No later UPDATE,
// failed INSERT or Restore changes a row already returned, nor the first row
// held apart from its by-value Result. After the writes and after the
// Restore, sql returns what a fresh execution does (checkFresh), whatever db
// memoised before. db ends as it started.
func checkResultIsSnapshot(t *testing.T, db *DB, sql string, args []Value, res Result) {
	t.Helper()
	want := fingerprint(res)
	var held, heldWant []Value
	if res.Len() > 0 {
		held, heldWant = res.Rows[0], slices.Clone(res.Rows[0])
	}
	if isStar(sql) {
		for i, row := range res.Rows {
			if cap(row) != len(row) {
				t.Fatalf("%s: row %d has capacity %d past its %d values: an append would write into the store", sql, i, cap(row), len(row))
			}
		}
	} else {
		scribble(mustExec(t, db, sql, args...))
		if again := mustExec(t, db, sql, args...); fingerprint(again) != want {
			t.Fatalf("%s: scribbling on one result changed the next:\n%s\nwant\n%s", sql, fingerprint(again), want)
		}
	}
	snap := db.Snapshot()
	clobber(t, db)
	checkFresh(t, db, DefaultCostModel, sql, args...)
	db.Restore(snap)
	checkFresh(t, db, DefaultCostModel, sql, args...)
	if got := fingerprint(res); got != want {
		t.Fatalf("%s: later writes and a Restore changed a returned result:\n%s\nwant\n%s", sql, got, want)
	}
	if !slices.Equal(held, heldWant) {
		t.Fatalf("%s: later writes and a Restore changed a held row: %v, want %v", sql, held, heldWant)
	}
}

// clobber sets every nullable non-key column of every table to NULL, then
// runs a two-row INSERT into each keyed table that stores a fresh row and
// fails on a copy of the first row, which rolls the statement back.
func clobber(t *testing.T, db *DB) {
	t.Helper()
	for name, tab := range db.tables {
		var sets []string
		for _, c := range tab.cols {
			if !c.NotNull && !c.PrimaryKey {
				sets = append(sets, c.Name+" = NULL")
			}
		}
		if len(sets) > 0 {
			mustExec(t, db, `UPDATE `+name+` SET `+strings.Join(sets, ", "))
		}
		if tab.pk < 0 || len(tab.rows) == 0 {
			continue
		}
		dup := tab.rows[0].vals()
		fresh := slices.Clone(dup)
		fresh[tab.pk] = Int(-1)
		tuple := "(?" + strings.Repeat(", ?", len(dup)-1) + ")"
		sql := `INSERT INTO ` + name + ` VALUES ` + tuple + `, ` + tuple
		if _, err := db.Exec(sql, append(fresh, dup...)...); !errors.Is(err, ErrDuplicateKey) {
			t.Fatalf("%s: %v, want %v", sql, err, ErrDuplicateKey)
		}
	}
}

// TestResultRowsAreSnapshots: whatever plan produced it, a result is a
// read-only snapshot (checkResultIsSnapshot), and a single-table SELECT *
// hands back the stored value slices themselves — for one row, as the view
// the stored row built when its values were installed.
func TestResultRowsAreSnapshots(t *testing.T) {
	db := newBenchDB(t)
	// A stored slice may have spare capacity (UPDATE builds its new values
	// by append); give row 7's some, which no result may expose.
	r7 := db.tables["item"].rows[7].vals()
	db.tables["item"].rows[7] = db.blocks.row(append(make([]Value, 0, 2*len(r7)), r7...))
	for _, sql := range []string{
		`SELECT * FROM item WHERE id = 7`,
		`SELECT * FROM item WHERE grp = 3 ORDER BY price DESC LIMIT 1`,
		`SELECT name, price FROM item WHERE id = 7`,
		`SELECT * FROM item WHERE grp = 3 ORDER BY price DESC LIMIT 9`,
		`SELECT * FROM item ORDER BY id DESC LIMIT 9`,
		`SELECT id, name FROM item ORDER BY id LIMIT 9`,
		`SELECT item.name, detail.note FROM item JOIN detail ON detail.item_id = item.id WHERE item.grp = 3 ORDER BY detail.id`,
		`SELECT DISTINCT grp FROM item ORDER BY grp`,
		`SELECT DISTINCT * FROM item WHERE grp = 3`,
	} {
		res := mustExec(t, db, sql)
		if isStar(sql) {
			stored := db.tables["item"].rows[res.Rows[0][0].AsInt()]
			if &res.Rows[0][0] != &stored.vals()[0] {
				t.Errorf("%s: the first row is a copy, not the stored slice", sql)
			}
			if res.Len() == 1 && &res.Rows[0] != &stored.view[0] {
				t.Errorf("%s: a one-row result built its own row list, not the stored row's view", sql)
			}
		}
		checkResultIsSnapshot(t, db, sql, nil, res)
	}
}

// TestConcurrentPreparedSelect runs one prepared SELECT from several
// goroutines on one DB: plan scratch is shared and only db.mu orders its
// use, which the race detector checks (the race job repeats this package).
func TestConcurrentPreparedSelect(t *testing.T) {
	db := newBenchDB(t)
	st, err := db.PrepareStmt(
		`SELECT item.name, detail.id FROM item JOIN detail ON detail.item_id = item.id WHERE item.grp = ? ORDER BY detail.id DESC LIMIT 20`)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, 50)
	for g := range want {
		want[g] = fingerprint(mustExec(t, db, st.sql, Int(int64(g))))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := (i*7 + w) % len(want)
				res, err := st.Exec(Int(int64(g)))
				if err != nil {
					t.Error(err)
					return
				}
				if got := fingerprint(res); got != want[g] {
					t.Errorf("grp %d: got %s, want %s", g, got, want[g])
					return
				}
				scribble(res)
			}
		}()
	}
	wg.Wait()
}

// TestLikeFastPathMatchesGeneralMatcher: whatever analyseLike decides, a
// pattern matches exactly the subjects likeMatch says it matches through a
// column operand, which a %needle% pattern searches in the row's folded copy,
// with one prepared statement whose pattern changes per execution, and again
// after updates replaced every subject.
func TestLikeFastPathMatchesGeneralMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "A", "b", "B", "c", " ", "%", "_", "ä", "Ä", "K", "\u212a"} // KELVIN SIGN lower-cases to k
	word := func(max int) string {
		var sb strings.Builder
		for n := rng.Intn(max + 1); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	subjects := []string{"", "a", "cat food", "CAT", "Ärn", "k", "\u212a"}
	for i := 0; i < 200; i++ {
		subjects = append(subjects, strings.NewReplacer("%", "", "_", "").Replace(word(8)))
	}
	patterns := []string{"", "%", "%%", "%%%", "%a%", "%A_%", "%a%b%", "_%", "%ä%", "%CAT%", "%cat food%", "%k%", "%\u212a%", "a%"}
	for i := 0; i < 200; i++ {
		patterns = append(patterns, word(4), "%"+word(3)+"%")
	}

	db := New()
	mustExec(t, db, `CREATE TABLE s (id INT PRIMARY KEY, name TEXT)`)
	for i, s := range subjects {
		mustExec(t, db, `INSERT INTO s VALUES (?, ?)`, Int(int64(i)), Str(s))
	}
	fast := 0
	for _, p := range patterns {
		if analyseLike(p).substr {
			fast++
		}
	}
	if fast < 50 || fast > len(patterns)-50 {
		t.Fatalf("%d of %d patterns take the substring path: the table no longer covers both", fast, len(patterns))
	}
	check := func() {
		t.Helper()
		for _, p := range patterns {
			var want []int64
			for i, s := range subjects {
				if likeMatch(s, p) {
					want = append(want, int64(i))
				}
			}
			const sql = `SELECT id FROM s WHERE name LIKE ? ORDER BY id`
			if got := intColumn(mustExec(t, db, sql, Str(p)), 0); !equalInts(got, want) {
				t.Fatalf("%s with %q: ids %v, want %v", sql, p, got, want)
			}
		}
	}
	check()
	// An UPDATE swaps every row's values, and with them its folded copy.
	for i := range subjects {
		subjects[i] += "k"
		mustExec(t, db, `UPDATE s SET name = ? WHERE id = ?`, Str(subjects[i]), Int(int64(i)))
	}
	check()
}

// TestValueLayout pins the 32-byte Value and what moving a float's bits and
// a predicate's truth into I must not change.
func TestValueLayout(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size != 32 {
		t.Fatalf("Value is %d bytes, want 32", size)
	}
	negZero := math.Copysign(0, -1)
	for _, f := range []float64{0, negZero, 1.5, -2.25, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		v := Float(f)
		if got := v.AsFloat(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%v).AsFloat() = %v", f, got)
		}
		if v.K != KindFloat || v.S != "" {
			t.Errorf("Float(%v) = %#v", f, v)
		}
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() || Bool(true).AsInt() != 1 || Bool(false) != (Value{K: KindBool}) {
		t.Error("Bool round trip broken")
	}
	if Float(2.9).AsInt() != 2 || Float(-2.9).AsInt() != -2 || !Float(0.1).AsBool() || Float(negZero).AsBool() {
		t.Error("Float conversions broken")
	}
	nan, inf := Float(math.NaN()), Float(math.Inf(1))
	compare := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0}, {Null(), Int(0), -1}, {Str(""), Null(), 1},
		{Int(3), Float(3), 0}, {Int(3), Float(3.5), -1}, {Float(-1), Int(-2), 1},
		{Float(0), Float(negZero), 0}, {Float(math.Inf(-1)), Int(math.MinInt64), -1}, {inf, Int(math.MaxInt64), 1},
		{nan, Int(1), 0}, {Int(1), nan, 0}, {nan, nan, 0}, // NaN is neither below nor above anything
		{Str("a"), Str("b"), -1}, {Str("b"), Str("a"), 1}, {Str("a"), Str("a"), 0},
		{Bool(false), Bool(true), -1}, {Bool(true), Bool(false), 1}, {Bool(true), Bool(true), 0},
		{Int(9), Str("1"), -1}, {Str("1"), Bool(true), -1}, {Bool(false), Float(7), 1},
	}
	for _, c := range compare {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	keys := []struct {
		v    Value
		want key
	}{
		{Null(), key{}}, {Bool(true), key{}}, {Bool(false), key{}},
		{Int(3), key{k: KindFloat, f: 3}}, {Float(3), key{k: KindFloat, f: 3}}, {Float(negZero), key{k: KindFloat, f: negZero}},
		{inf, key{k: KindFloat, f: math.Inf(1)}}, {Str("x"), key{k: KindString, s: "x"}}, {Str(""), key{k: KindString}},
	}
	for _, c := range keys {
		if got := c.v.mapKey(); got != c.want || math.Signbit(got.f) != math.Signbit(c.want.f) {
			t.Errorf("%v.mapKey() = %#v, want %#v", c.v, got, c.want)
		}
	}
	if k := nan.mapKey(); k.k != KindFloat || !math.IsNaN(k.f) {
		t.Errorf("NaN.mapKey() = %#v", k)
	}
	if Float(0).mapKey() != Float(negZero).mapKey() {
		t.Error("0 and -0 must share an index bucket")
	}
	strs := map[string]Value{"NaN": nan, "+Inf": inf, "-0": Float(negZero), "false": Bool(false), "2.5": Float(2.5)}
	for want, v := range strs {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
	for _, c := range []struct {
		v    Value
		to   Kind
		want string
	}{
		{Float(2.9), KindInt, "2"}, {Int(2), KindFloat, "2"}, {Float(negZero), KindString, "'-0'"},
		{inf, KindString, "'+Inf'"}, {Bool(true), KindString, "'true'"}, {Null(), KindInt, "NULL"},
	} {
		got, err := coerce(c.v, c.to)
		if err != nil || got.String() != c.want || (!got.IsNull() && got.K != c.to) {
			t.Errorf("coerce(%v, %v) = %v, %v; want %s", c.v, c.to, got, err, c.want)
		}
	}
	if _, err := coerce(Str("1"), KindInt); err == nil {
		t.Error("coerce TEXT to INT accepted")
	}
	if _, err := coerce(Bool(true), KindFloat); err == nil {
		t.Error("coerce BOOL to FLOAT accepted")
	}
}
