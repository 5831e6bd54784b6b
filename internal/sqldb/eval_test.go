package sqldb

import (
	"errors"
	"strings"
	"testing"
)

// evalDB builds a tiny table for expression-evaluation tests.
func evalDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	stmts := []string{
		`CREATE TABLE v (id INT PRIMARY KEY, i INT, f FLOAT, s TEXT)`,
		`INSERT INTO v (id, i, f, s) VALUES (1, 10, 2.5, 'abc')`,
		`INSERT INTO v (id) VALUES (2)`, // all-NULL row
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// one runs a single-row, single-column query.
func one(t *testing.T, db *DB, sql string, args ...Value) Value {
	t.Helper()
	r, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if r.Len() != 1 || len(*r.Cols) != 1 {
		t.Fatalf("%s: %dx%d result", sql, r.Len(), len(*r.Cols))
	}
	return r.Rows[0][0]
}

func TestArithmeticEvaluation(t *testing.T) {
	db := evalDB(t)
	cases := []struct {
		sql  string
		want Value
	}{
		{`SELECT i + 5 FROM v WHERE id = 1`, Int(15)},
		{`SELECT i - 3 FROM v WHERE id = 1`, Int(7)},
		{`SELECT i * 2 FROM v WHERE id = 1`, Int(20)},
		{`SELECT i / 4 FROM v WHERE id = 1`, Int(2)}, // integer division
		{`SELECT i + f FROM v WHERE id = 1`, Float(12.5)},
		{`SELECT f * 2 FROM v WHERE id = 1`, Float(5)},
		{`SELECT f - 0.5 FROM v WHERE id = 1`, Float(2)},
		{`SELECT f / 2.5 FROM v WHERE id = 1`, Float(1)},
		{`SELECT 0 - i FROM v WHERE id = 1`, Int(-10)},
		{`SELECT (i + 2) * f FROM v WHERE id = 1`, Float(30)},
	}
	for _, c := range cases {
		got := one(t, db, c.sql)
		if Compare(got, c.want) != 0 || got.K != c.want.K {
			t.Errorf("%s = %#v, want %#v", c.sql, got, c.want)
		}
	}
}

func TestNullPropagatesThroughExpressions(t *testing.T) {
	db := evalDB(t)
	for _, sql := range []string{
		`SELECT i + 1 FROM v WHERE id = 2`,
		`SELECT i * f FROM v WHERE id = 2`,
		`SELECT i >= 1 FROM v WHERE id = 2`,
		`SELECT s LIKE 'a%' FROM v WHERE id = 2`,
		`SELECT s + 'x' FROM v WHERE id = 2`,
	} {
		if got := one(t, db, sql); !got.IsNull() {
			t.Errorf("%s = %v, want NULL", sql, got)
		}
	}
}

func TestBooleanThreeValuedLogic(t *testing.T) {
	db := evalDB(t)
	// NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
	if got := one(t, db, `SELECT i > 0 AND 1 = 0 FROM v WHERE id = 2`); got.IsNull() || got.AsBool() {
		t.Errorf("NULL AND FALSE = %v", got)
	}
	if got := one(t, db, `SELECT i > 0 OR 1 = 1 FROM v WHERE id = 2`); !got.AsBool() {
		t.Errorf("NULL OR TRUE = %v", got)
	}
	if got := one(t, db, `SELECT i > 0 AND 1 = 1 FROM v WHERE id = 2`); !got.IsNull() {
		t.Errorf("NULL AND TRUE = %v, want NULL", got)
	}
	if got := one(t, db, `SELECT i > 0 OR 1 = 0 FROM v WHERE id = 2`); !got.IsNull() {
		t.Errorf("NULL OR FALSE = %v, want NULL", got)
	}
	// NOT is a constraint keyword only, never an operator.
	wantSyntaxErrorAt(t, `SELECT NOT (i > 5) FROM v WHERE id = 1`, "NOT")
}

func TestNotInAndNotBetween(t *testing.T) {
	wantSyntaxErrorAt(t, `SELECT id FROM v WHERE id NOT IN (2, 3)`, "NOT")
	wantSyntaxErrorAt(t, `SELECT id FROM v WHERE id NOT BETWEEN 2 AND 9`, "NOT")
}

func TestAggregateExpressionArithmetic(t *testing.T) {
	wantSyntaxErrorAt(t, `SELECT SUM(i) + COUNT(*) FROM v`, "SUM")
	wantSyntaxErrorAt(t, `SELECT 1 + COUNT(i) FROM v`, "COUNT")
	wantSyntaxErrorAt(t, `SELECT i FROM v ORDER BY MAX(i)`, "MAX")
}

func TestAggregateErrors(t *testing.T) {
	db := evalDB(t)
	bad := []string{
		`SELECT SUM(s) FROM v`,                // non-numeric SUM
		`SELECT i FROM v WHERE SUM(i) > 0`,    // aggregate in WHERE
		`SELECT * FROM v GROUP BY i`,          // star with aggregation
		`SELECT SUM(i, f) FROM v`,             // wrong arity
		`SELECT SUM(i) FROM v ORDER BY ghost`, // unknown output column
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("%s accepted", sql)
		}
	}
}

func TestScalarFuncErrors(t *testing.T) {
	db := evalDB(t)
	for _, sql := range []string{
		`SELECT LOWER(s, s) FROM v`,
		`SELECT UPPER() FROM v`,
		`SELECT LENGTH(s, s) FROM v`,
		`SELECT NOSUCHFUNC(s) FROM v`,
		`SELECT LOWER(s) FROM v WHERE id = 2`,
		`UPDATE v SET s = UPPER(s) WHERE id = 1`,
		`INSERT INTO v (id, i) VALUES (3, LENGTH('abc'))`,
	} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%s accepted", sql)
		}
	}
}

func TestArithmeticOnNonNumericFails(t *testing.T) {
	db := evalDB(t)
	if _, err := db.Query(`SELECT (i > 0) * 2 FROM v WHERE id = 1`); err == nil {
		t.Fatal("bool arithmetic accepted")
	}
	if _, err := db.Query(`SELECT s - 1 FROM v WHERE id = 1`); err == nil {
		t.Fatal("string subtraction accepted")
	}
}

func TestTimestampValues(t *testing.T) {
	// There is no timestamp kind: the applications keep dates as INT.
	wantSyntaxErrorAt(t, `CREATE TABLE e (id INT PRIMARY KEY, ts TIMESTAMP)`, "TIMESTAMP")
}

func TestValueStringRendering(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null(),
		"42":   Int(42),
		"'x'":  Str("x"),
		"true": Bool(true),
		"2.5":  Float(2.5),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
	if KindInt.String() != "INT" || KindNull.String() != "NULL" || KindBool.String() != "BOOL" {
		t.Error("Kind strings wrong")
	}
}

func TestValueConversions(t *testing.T) {
	if Str("17").AsInt() != 17 || Str("2.5").AsFloat() != 2.5 {
		t.Error("string numeric conversion broken")
	}
	if Bool(true).AsInt() != 1 || Bool(false).AsInt() != 0 {
		t.Error("bool->int broken")
	}
	if Int(3).AsString() != "3" || Float(2.5).AsString() != "2.5" || Bool(true).AsString() != "true" {
		t.Error("AsString broken")
	}
	if Null().AsString() != "" || !Null().IsNull() {
		t.Error("null handling broken")
	}
	if Int(1).AsBool() != true || Int(0).AsBool() != false || Str("x").AsBool() != true {
		t.Error("AsBool broken")
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse(`SELECT FROM`)
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(se.Error(), "syntax error") || se.SQL != `SELECT FROM` {
		t.Fatalf("message = %q", se.Error())
	}
}

func TestTablesAndCostModelAccessors(t *testing.T) {
	db := evalDB(t)
	if n, err := db.RowCount("v"); err != nil || n != 2 {
		t.Fatalf("RowCount v = %d, %v", n, err)
	}
	// A heavier cost model increases reported statement cost.
	cheap, err := db.Query(`SELECT * FROM v`)
	if err != nil {
		t.Fatal(err)
	}
	expensive := DefaultCostModel
	expensive.PerStatement *= 10
	db.SetCostModel(expensive)
	costly, err := db.Query(`SELECT * FROM v`)
	if err != nil {
		t.Fatal(err)
	}
	if costly.Cost <= cheap.Cost {
		t.Fatalf("cost model ignored: %v <= %v", costly.Cost, cheap.Cost)
	}
	if _, err := db.RowCount("ghost"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("RowCount ghost: %v", err)
	}
}

func TestGroupByWithPlaceholderFilter(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE o (id INT PRIMARY KEY, cat TEXT, amt INT)`); err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		cat string
		amt int64
	}{{"a", 1}, {"a", 2}, {"b", 5}, {"b", 7}, {"c", 100}}
	for i, r := range rows {
		if _, err := db.Exec(`INSERT INTO o VALUES (?, ?, ?)`, Int(int64(i)), Str(r.cat), Int(r.amt)); err != nil {
			t.Fatal(err)
		}
	}
	wantSyntaxErrorAt(t, `SELECT cat FROM o WHERE amt < ? GROUP BY cat ORDER BY cat DESC`, "GROUP")
	// The placeholder filter and the ordering stand without the grouping.
	res, err := db.Query(`SELECT cat, amt FROM o WHERE amt < ? ORDER BY cat DESC, amt`, Int(50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "b" || res.Rows[0][1].AsInt() != 5 || res.Rows[3][0].S != "a" || res.Rows[3][1].AsInt() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := New()
	for _, s := range []string{
		`CREATE TABLE a (id INT PRIMARY KEY, name TEXT)`,
		`CREATE TABLE b (id INT PRIMARY KEY, aid INT)`,
		`CREATE TABLE c (id INT PRIMARY KEY, bid INT, v INT)`,
		`INSERT INTO a VALUES (1, 'x'), (2, 'y')`,
		`INSERT INTO b VALUES (10, 1), (11, 2)`,
		`INSERT INTO c VALUES (100, 10, 7), (101, 11, 8), (102, 10, 9)`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(`SELECT a.name, c.v
		FROM a JOIN b ON b.aid = a.id JOIN c ON c.bid = b.id
		ORDER BY c.v DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 || res.Rows[0][0].S != "x" || res.Rows[0][1].AsInt() != 9 ||
		res.Rows[1][0].S != "y" || res.Rows[2][1].AsInt() != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestStringOrderingAndBoolOrdering(t *testing.T) {
	if Compare(Str("a"), Str("b")) >= 0 || Compare(Bool(false), Bool(true)) >= 0 {
		t.Fatal("ordering broken")
	}
	if Compare(Bool(true), Bool(true)) != 0 {
		t.Fatal("bool equality broken")
	}
	// Mismatched non-numeric kinds order by kind, consistently.
	if Compare(Str("z"), Bool(true))+Compare(Bool(true), Str("z")) != 0 {
		t.Fatal("cross-kind ordering not antisymmetric")
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	wantSyntaxErrorAt(t, `SELECT cat FROM o WHERE amt > 1 HAVING amt > 2 ORDER BY cat`, "HAVING")
	wantSyntaxErrorAt(t, `SELECT cat FROM o HAVING amt >= ?`, "HAVING")
}
