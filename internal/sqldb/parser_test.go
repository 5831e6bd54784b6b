package sqldb

import (
	"errors"
	"strings"
	"testing"
)

func mustParse(t *testing.T, sql string) Stmt {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

// wantSyntaxErrorAt asserts that sql fails to parse with a SyntaxError
// positioned at the first occurrence of token.
func wantSyntaxErrorAt(t *testing.T, sql, token string) {
	t.Helper()
	_, err := Parse(sql)
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Errorf("Parse(%q) = %v, want *SyntaxError", sql, err)
		return
	}
	if want := strings.Index(sql, token); se.Pos != want {
		t.Errorf("Parse(%q): error at %d (%s), want %d (%q)", sql, se.Pos, se.Msg, want, token)
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE item (
		id INT PRIMARY KEY,
		name TEXT NOT NULL,
		price FLOAT
	)`)
	ct, ok := st.(*CreateTableStmt)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.Name != "item" || len(ct.Cols) != 3 {
		t.Fatalf("table = %s, cols = %d", ct.Name, len(ct.Cols))
	}
	if !ct.Cols[0].PrimaryKey || !ct.Cols[0].NotNull || ct.Cols[0].Kind != KindInt {
		t.Fatalf("pk col wrong: %+v", ct.Cols[0])
	}
	if !ct.Cols[1].NotNull || ct.Cols[1].Kind != KindString {
		t.Fatalf("name col wrong: %+v", ct.Cols[1])
	}
	if ct.Cols[2].Kind != KindFloat || ct.Cols[2].NotNull {
		t.Fatalf("price col wrong: %+v", ct.Cols[2])
	}
}

func TestParseVarcharLength(t *testing.T) {
	// One spelling per column type: the aliases are not types.
	for _, alias := range []string{"VARCHAR(100)", "INTEGER", "REAL", "BOOL", "BOOLEAN"} {
		wantSyntaxErrorAt(t, `CREATE TABLE u (name `+alias+`)`, alias)
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	st := mustParse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`)
	ins := st.(*InsertStmt)
	if ins.Table != "t" || len(ins.Cols) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
}

func TestParseInsertPlaceholders(t *testing.T) {
	st := mustParse(t, `INSERT INTO t VALUES (?, ?, ?)`)
	ins := st.(*InsertStmt)
	for i, e := range ins.Rows[0] {
		ph, ok := e.(*Placeholder)
		if !ok || ph.Idx != i {
			t.Fatalf("placeholder %d = %#v", i, e)
		}
	}
}

func TestParseSelectFull(t *testing.T) {
	st := mustParse(t, `SELECT i.name, b.amount
		FROM items i JOIN bids b ON b.item_id = i.id
		WHERE i.category = ? AND b.amount > 10
		ORDER BY b.amount DESC, i.name ASC
		LIMIT 25`)
	sel := st.(*SelectStmt)
	if len(sel.Items) != 2 || sel.Items[1].Star {
		t.Fatalf("items: %+v", sel.Items)
	}
	if sel.From[0].Name() != "i" || sel.From[1].Name() != "b" {
		t.Fatalf("aliases: %+v", sel.From)
	}
	// Bare aliases name tables only; AS and output aliases are not grammar.
	wantSyntaxErrorAt(t, `SELECT name FROM items AS i`, "AS")
	wantSyntaxErrorAt(t, `SELECT name AS n FROM items`, "AS")
	wantSyntaxErrorAt(t, `SELECT name n FROM items`, "n FROM")
	if len(sel.From) != 2 || sel.From[1].Table != "bids" || sel.JoinOn[1] == nil {
		t.Fatalf("from: %+v", sel.From)
	}
	if sel.Where == nil || len(sel.OrderBy) != 2 {
		t.Fatalf("clauses: %+v", sel)
	}
	if !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("order dirs: %+v", sel.OrderBy)
	}
	if sel.Limit != 25 {
		t.Fatalf("limit: %d", sel.Limit)
	}
}

func TestParseSelectStar(t *testing.T) {
	st := mustParse(t, `SELECT * FROM t WHERE id = 1`)
	sel := st.(*SelectStmt)
	if len(sel.Items) != 1 || !sel.Items[0].Star {
		t.Fatalf("%+v", sel.Items)
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	st := mustParse(t, `SELECT a FROM t WHERE a = 7 AND b = 1 OR c = 2`)
	sel := st.(*SelectStmt)
	// Top must be OR.
	or, ok := sel.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %#v", sel.Where)
	}
	and, ok := or.Left.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("left = %#v", or.Left)
	}
	eq, ok := and.Left.(*BinaryExpr)
	if !ok || eq.Op != "=" {
		t.Fatalf("eq = %#v", and.Left)
	}
	if ref, ok := eq.Left.(*ColumnRef); !ok || ref.Name != "a" {
		t.Fatalf("eq left = %#v", eq.Left)
	}
	// A comparison's operands are primaries: there is no arithmetic.
	wantSyntaxErrorAt(t, `SELECT a FROM t WHERE a + 2 * 3 = 7`, "+")
}

func TestParseInBetweenIsNullLike(t *testing.T) {
	st := mustParse(t, `SELECT a FROM t WHERE e LIKE '%cat%' OR f LIKE ?`)
	or := st.(*SelectStmt).Where.(*BinaryExpr)
	if l, ok := or.Left.(*BinaryExpr); !ok || or.Op != "OR" || l.Op != "LIKE" {
		t.Fatalf("where = %#v", or)
	}
	wantSyntaxErrorAt(t, `SELECT a FROM t WHERE a IN (1, 2)`, "IN")
	wantSyntaxErrorAt(t, `SELECT a FROM t WHERE e LIKE 'x' AND c BETWEEN 1 AND 5`, "BETWEEN")
	wantSyntaxErrorAt(t, `SELECT a FROM t WHERE d IS NOT NULL`, "IS")
}

func TestParseUpdateDelete(t *testing.T) {
	st := mustParse(t, `UPDATE inv SET qty = ?, touched = 1 WHERE item_id = ?`)
	up := st.(*UpdateStmt)
	if up.Table != "inv" || len(up.Sets) != 2 || up.Where == nil {
		t.Fatalf("%+v", up)
	}
	wantSyntaxErrorAt(t, `UPDATE inv SET qty = qty - 1 WHERE item_id = ?`, "- 1")
	// No program removes a row: DELETE stays reserved, with no grammar rule.
	wantSyntaxErrorAt(t, `DELETE FROM sessions WHERE expired = 1`, "DELETE")
}

func TestParseCreateIndex(t *testing.T) {
	st := mustParse(t, `CREATE UNIQUE INDEX idx_user ON users (nickname)`)
	ci := st.(*CreateIndexStmt)
	if !ci.Unique || ci.Table != "users" || ci.Col != "nickname" {
		t.Fatalf("%+v", ci)
	}
}

func TestParseCommaJoin(t *testing.T) {
	// A join is spelled JOIN ... ON; every joined table carries its condition.
	wantSyntaxErrorAt(t, `SELECT a.x FROM a, b WHERE a.id = b.aid`, ", b")
	st := mustParse(t, `SELECT a.x FROM a JOIN b ON a.id = b.aid JOIN c ON c.bid = b.id`)
	sel := st.(*SelectStmt)
	if len(sel.From) != 3 || sel.JoinOn[0] != nil || sel.JoinOn[1] == nil || sel.JoinOn[2] == nil {
		t.Fatalf("%+v", sel)
	}
}

func TestParseStringEscapes(t *testing.T) {
	st := mustParse(t, `SELECT a FROM t WHERE s = 'it''s'`)
	sel := st.(*SelectStmt)
	eq := sel.Where.(*BinaryExpr)
	lit := eq.Right.(*Literal)
	if lit.Val.S != "it's" {
		t.Fatalf("string = %q", lit.Val.S)
	}
}

func TestParseComments(t *testing.T) {
	wantSyntaxErrorAt(t, "SELECT a FROM t -- trailing comment\nWHERE a = 1", "-- trailing")
}

func TestParseNegativeNumber(t *testing.T) {
	// No unary minus and no subtraction: a negative constant is a parameter.
	wantSyntaxErrorAt(t, `SELECT a FROM t WHERE a > -5`, "-5")
	wantSyntaxErrorAt(t, `SELECT a FROM t WHERE a > 0 - 5`, "- 5")
	mustParse(t, `SELECT a FROM t WHERE a > ?`)
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"INSERT INTO t",
		"INSERT INTO t VALUES 1",
		"UPDATE t SET",
		"CREATE TABLE t",
		"CREATE TABLE t (a BLOB)",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t; SELECT b FROM t",
		"SELECT a FROM t WHERE a != 1",
		"SELECT a FROM t WHERE s = 'unterminated",
		"SELECT a FROM t WHERE a @ 1",
		"CREATE UNIQUE TABLE t (a INT)",
		"SELECT a FROM t INNER JOIN u ON u.a = t.a",
		// Forms the applications never issue have no grammar rule.
		"SELECT a FROM t GROUP BY a",
		"SELECT a FROM t HAVING a > 1",
		"SELECT a FROM t WHERE a IN (1)",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 2",
		"SELECT a FROM t WHERE a IS NULL",
		"SELECT a FROM t LIMIT 1 OFFSET 1",
		"SELECT LOWER(a) FROM t",
		"SELECT a FROM t WHERE NOT a = 1",
		"DROP TABLE t",
		"DELETE FROM t WHERE a = 1",
		"SELECT a * 2 FROM t",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q) error %T, want *SyntaxError", sql, err)
			}
		}
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	// Exec takes one statement; there is no separator to tolerate.
	wantSyntaxErrorAt(t, "SELECT a FROM t;", ";")
}

func TestParseAggregates(t *testing.T) {
	sql := `SELECT price, COUNT(*), SUM(price), AVG(price), MIN(price), MAX(price) FROM items`
	wantSyntaxErrorAt(t, sql, "COUNT")
	// The names stay reserved, so none of them reads as a column either.
	wantSyntaxErrorAt(t, `SELECT max FROM items`, "max")
}

func TestParseDistinct(t *testing.T) {
	st := mustParse(t, `SELECT DISTINCT region FROM users`)
	sel := st.(*SelectStmt)
	if !sel.Distinct {
		t.Fatal("DISTINCT not parsed")
	}
}

func TestParseQualifiedStarUnsupported(t *testing.T) {
	if _, err := Parse(`SELECT t.* FROM t`); err == nil {
		t.Fatal("t.* should be rejected")
	}
}

func TestParseScalarFuncs(t *testing.T) {
	wantSyntaxErrorAt(t, `SELECT LOWER(name) FROM t`, "(")
	wantSyntaxErrorAt(t, `SELECT name FROM t WHERE UPPER(name) LIKE 'A%'`, "(")
}
