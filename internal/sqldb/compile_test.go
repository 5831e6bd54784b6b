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

// isStar reports whether sql is a single-table SELECT * without DISTINCT,
// whose result rows are the stored value slices.
func isStar(sql string) bool {
	st, err := Parse(sql)
	s, ok := st.(*SelectStmt)
	return err == nil && ok && len(s.From) == 1 && len(s.Items) == 1 && s.Items[0].Star && !s.Distinct
}

// sameRowList reports whether a and b share one row list.
func sameRowList(a, b Result) bool {
	return len(a.Rows) == len(b.Rows) && (len(a.Rows) == 0 || &a.Rows[0] == &b.Rows[0])
}

// otherArgs returns args with every value changed: a number moved by one, a
// string prefixed, anything else made 1.
func otherArgs(args []Value) []Value {
	out := make([]Value, len(args))
	for i, a := range args {
		switch a.K {
		case KindInt:
			out[i] = Int(a.AsInt() + 1)
		case KindFloat:
			out[i] = Float(a.AsFloat() + 1)
		case KindString:
			out[i] = Str("a" + a.S)
		default:
			out[i] = Int(1)
		}
	}
	return out
}

// checkResultIsSnapshot holds res, the first result db returned for sql, to
// the result contract. A SELECT * row is a stored slice whose capacity is its
// length, so a caller's append copies. A repeat before any write equals res
// and, where the plan memoised it, is res's row list itself. An execution
// with other arguments, which reuses the plan's scratch, leaves res as it
// was. No later UPDATE, failed INSERT or Restore changes a row already
// returned, nor the first row held apart from its by-value Result. After the
// writes and after the Restore, sql returns what a fresh execution does
// (checkFresh), whatever db memoised before. db ends as it started.
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
	}
	again := mustExec(t, db, sql, args...)
	if fingerprint(again) != want {
		t.Fatalf("%s %v: a repeat returned\n%s\nwant\n%s", sql, args, fingerprint(again), want)
	}
	if memoised(db, sql, args) && !sameRowList(again, res) {
		t.Fatalf("%s %v: a memoised repeat built a row list of its own", sql, args)
	}
	if len(args) > 0 {
		_, _ = db.Exec(sql, otherArgs(args)...) // an error is fine: the scratch was used
		if got := fingerprint(res); got != want {
			t.Fatalf("%s %v: an execution with other arguments changed a returned result:\n%s\nwant\n%s", sql, args, got, want)
		}
	}
	snap := db.Snapshot()
	clobber(t, db)
	checkFresh(t, db, sql, args...)
	db.Restore(snap)
	checkFresh(t, db, sql, args...)
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
// shared, read-only snapshot (checkResultIsSnapshot), and a single-table
// SELECT * hands back the stored value slices themselves — for one row, as
// the view the stored row built when its values were installed.
func TestResultRowsAreSnapshots(t *testing.T) {
	db := newBenchDB(t)
	// A stored slice may have spare capacity (UPDATE builds its new values
	// by append); give row 7's some, which no result may expose.
	r7 := db.tables["item"].rows[7].vals()
	db.tables["item"].rows[7] = db.blocks.row(append(make([]Value, 0, 2*len(r7)), r7...))
	for _, c := range []struct {
		sql  string
		args []Value
	}{
		{`SELECT * FROM item WHERE id = ?`, []Value{Int(7)}},
		{`SELECT * FROM item WHERE grp = ? ORDER BY price DESC LIMIT 1`, []Value{Int(3)}},
		{`SELECT name, price FROM item WHERE id = ?`, []Value{Int(7)}},
		{`SELECT * FROM item WHERE grp = ? ORDER BY price DESC LIMIT 9`, []Value{Int(3)}},
		{`SELECT * FROM item ORDER BY id DESC LIMIT 9`, nil},
		{`SELECT id, name FROM item ORDER BY id LIMIT 9`, nil},
		{`SELECT id, name FROM item WHERE price < ? ORDER BY id LIMIT 9`, []Value{Float(400)}},
		{`SELECT item.name, detail.note FROM item JOIN detail ON detail.item_id = item.id WHERE item.grp = ? ORDER BY detail.id`, []Value{Int(3)}},
		{`SELECT DISTINCT grp FROM item WHERE price < ? ORDER BY grp`, []Value{Float(400)}},
		{`SELECT DISTINCT * FROM item WHERE grp = ?`, []Value{Int(3)}},
	} {
		res := mustExec(t, db, c.sql, c.args...)
		if isStar(c.sql) {
			stored := db.tables["item"].rows[res.Rows[0][0].AsInt()]
			if &res.Rows[0][0] != &stored.vals()[0] {
				t.Errorf("%s: the first row is a copy, not the stored slice", c.sql)
			}
			if res.Len() == 1 && &res.Rows[0] != &stored.view[0] {
				t.Errorf("%s: a one-row result built its own row list, not the stored row's view", c.sql)
			}
		}
		checkResultIsSnapshot(t, db, c.sql, c.args, res)
	}
}

// TestConcurrentPreparedSelect runs a prepared join and a prepared DISTINCT
// from several goroutines on one DB while another goroutine rewrites rows of
// both joined tables with the values they hold, so every write empties the
// memos and executions interleave with hits: plan scratch and memo are
// shared and only db.mu orders their use, which the race detector checks
// (the race job repeats this package). Every result equals a sequential
// run's, and still does once every goroutine has finished: no execution
// wrote into a result another holds.
func TestConcurrentPreparedSelect(t *testing.T) {
	db := newBenchDB(t)
	const groups = 50
	var stmts [2]*Prepared
	var want [2][groups]string
	for i, sql := range []string{
		`SELECT item.name, detail.id FROM item JOIN detail ON detail.item_id = item.id WHERE item.grp = ? ORDER BY detail.id DESC LIMIT 20`,
		`SELECT DISTINCT price FROM item WHERE grp = ? ORDER BY price`,
	} {
		st, err := db.PrepareStmt(sql)
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = st
		for g := range want[i] {
			want[i][g] = fingerprint(mustExec(t, db, sql, Int(int64(g))))
		}
	}
	type heldResult struct {
		res     Result
		st, grp int
	}
	held := make([][]heldResult, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			id := int64(i * 7 % 2000)
			if _, err := db.Exec(`UPDATE item SET price = ? WHERE id = ?`, Float(float64(id%500)), Int(id)); err != nil {
				t.Error(err)
				return
			}
			if _, err := db.Exec(`UPDATE detail SET note = ? WHERE id = ?`, Str("note"), Int(id)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s, g := i%2, (i*7+w)%groups
				res, err := stmts[s].Exec(Int(int64(g)))
				if err != nil {
					t.Error(err)
					return
				}
				if got := fingerprint(res); got != want[s][g] {
					t.Errorf("%s grp %d: got %s, want %s", stmts[s].sql, g, got, want[s][g])
					return
				}
				held[w] = append(held[w], heldResult{res, s, g})
			}
		}()
	}
	wg.Wait()
	for _, hs := range held {
		for _, h := range hs {
			if got := fingerprint(h.res); got != want[h.st][h.grp] {
				t.Fatalf("%s grp %d: a held result changed to %s, want %s", stmts[h.st].sql, h.grp, got, want[h.st][h.grp])
			}
		}
	}
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
