package sqldb

import (
	"fmt"
	"strings"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	sql     string
	toks    []token
	pos     int
	nParams int
	depth   int // open parentheses around the expression being parsed
}

// maxNesting bounds parenthesis depth: each level costs four stack frames, and
// statement text is untrusted input.
const maxNesting = 100

// Parse parses a single SQL statement.
func Parse(sql string) (Stmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{sql: sql, toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %q after statement", p.peek().text)
	}
	return st, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...), SQL: p.sql}
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errorf("expected %q", s)
	}
	return nil
}

// ident accepts an identifier or a non-reserved keyword used as a name
// (column names like "count" are rejected; keep names unreserved).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.next()
		return t.text, nil
	}
	return "", p.errorf("expected identifier, got %q", t.text)
}

func (p *parser) statement() (Stmt, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected statement keyword, got %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "CREATE":
		return p.createStmt()
	default:
		return nil, p.errorf("unsupported statement %s", t.text)
	}
}

func (p *parser) createStmt() (Stmt, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	unique := p.acceptKeyword("UNIQUE")
	if p.acceptKeyword("TABLE") {
		if unique {
			return nil, p.errorf("UNIQUE TABLE is not valid")
		}
		return p.createTable()
	}
	if p.acceptKeyword("INDEX") {
		return p.createIndex(unique)
	}
	return nil, p.errorf("expected TABLE or INDEX")
}

func (p *parser) createTable() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: strings.ToLower(name)}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		kind, err := p.columnKind()
		if err != nil {
			return nil, err
		}
		def := ColumnDef{Name: strings.ToLower(col), Kind: kind}
		for {
			switch {
			case p.acceptKeyword("PRIMARY"):
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				def.PrimaryKey = true
				def.NotNull = true
			case p.acceptKeyword("NOT"):
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				def.NotNull = true
			default:
				goto colDone
			}
		}
	colDone:
		st.Cols = append(st.Cols, def)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) columnKind() (Kind, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return 0, p.errorf("expected column type, got %q", t.text)
	}
	p.next()
	switch t.text {
	case "INT":
		return KindInt, nil
	case "FLOAT":
		return KindFloat, nil
	case "TEXT":
		return KindString, nil
	default:
		return 0, p.errorf("unsupported column type %s", t.text)
	}
}

func (p *parser) createIndex(unique bool) (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{
		Name:   strings.ToLower(name),
		Table:  strings.ToLower(table),
		Col:    strings.ToLower(col),
		Unique: unique,
	}, nil
}

func (p *parser) insertStmt() (Stmt, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: strings.ToLower(table)}
	if p.acceptSymbol("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, strings.ToLower(col))
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) updateStmt() (Stmt, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: strings.ToLower(table)}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, Assign{Col: strings.ToLower(col), Expr: e})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.acceptKeyword("DISTINCT")
	// Output list.
	for {
		if p.acceptSymbol("*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			st.Items = append(st.Items, SelectItem{Expr: e})
		}
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	// FROM table [JOIN table ON cond]...
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	st.From = append(st.From, ref)
	st.JoinOn = append(st.JoinOn, nil)
	for p.acceptKeyword("JOIN") {
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.From = append(st.From, ref)
		st.JoinOn = append(st.JoinOn, on)
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			k := OrderKey{Expr: e}
			if p.acceptKeyword("DESC") {
				k.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, k)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		if p.peek().kind != tokNumber {
			return nil, p.errorf("expected LIMIT count")
		}
		st.Limit = int(p.next().num.AsInt())
	}
	return st, nil
}

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: strings.ToLower(name)}
	if p.peek().kind == tokIdent {
		ref.Alias = strings.ToLower(p.next().text)
	}
	return ref, nil
}

// Expression grammar, lowest precedence first:
// expr     = andExpr (OR andExpr)*
// andExpr  = cmpExpr (AND cmpExpr)*
// cmpExpr  = primary [(=|<>|<|<=|>|>=|LIKE) primary]
// primary  = literal | placeholder | columnRef | (expr)

func (p *parser) expression() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) andExpr() (Expr, error) {
	left, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	left, err := p.primary()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	isCmp := t.kind == tokKeyword && t.text == "LIKE"
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "<>", "<", "<=", ">", ">=":
			isCmp = true
		}
	}
	if !isCmp {
		return left, nil
	}
	p.next()
	right, err := p.primary()
	if err != nil {
		return nil, err
	}
	return &BinaryExpr{Op: t.text, Left: left, Right: right}, nil
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		return &Literal{Val: t.num}, nil
	case tokString:
		p.next()
		return &Literal{Val: Str(t.text)}, nil
	case tokPlaceholder:
		p.next()
		e := &Placeholder{Idx: p.nParams}
		p.nParams++
		return e, nil
	case tokKeyword:
		if t.text == "NULL" {
			p.next()
			return &Literal{Val: Null()}, nil
		}
		return nil, p.errorf("unexpected keyword %s in expression", t.text)
	case tokIdent:
		p.next()
		if p.acceptSymbol(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: strings.ToLower(t.text), Name: strings.ToLower(col)}, nil
		}
		return &ColumnRef{Name: strings.ToLower(t.text)}, nil
	case tokSymbol:
		if t.text == "(" {
			if p.depth++; p.depth > maxNesting {
				return nil, p.errorf("expression nested deeper than %d", maxNesting)
			}
			p.next()
			e, err := p.expression()
			p.depth--
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected %q in expression", t.text)
}
