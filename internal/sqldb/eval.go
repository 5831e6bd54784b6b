package sqldb

import (
	"fmt"
	"strings"
)

// Expressions are lowered once per plan to closures over a frame: column
// references become (slot, ordinal) reads, operators are decoded, and a
// reference that does not resolve becomes a closure returning the error the
// reference would raise — when, and only when, a row reaches it. The AST is
// immutable after Parse.

// frame is what a compiled expression reads: the current row of every FROM
// slot bound so far, and the statement's parameters.
type frame struct {
	rows   []*row
	params []Value
}

// evalFn is a compiled expression.
type evalFn func(fr *frame) (Value, error)

// scope is the table prefix an expression is compiled against. The prefix
// matters: an unqualified name is ambiguous only among the tables in it.
type scope struct {
	tabs  []*table
	names []string // alias or table name as referenced in the query
}

// column resolves ref to a slot and column ordinal, or to the error that
// evaluating it raises.
func (sc scope) column(ref *ColumnRef) (slot, col int, err error) {
	if ref.Table != "" {
		for si, name := range sc.names {
			if name == ref.Table {
				i, ok := sc.tabs[si].colIdx[ref.Name]
				if !ok {
					return 0, 0, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, ref.Table, ref.Name)
				}
				return si, i, nil
			}
		}
		return 0, 0, fmt.Errorf("%w: unknown table %s", ErrNoSuchColumn, ref.Table)
	}
	slot = -1
	for si, t := range sc.tabs {
		if i, ok := t.colIdx[ref.Name]; ok {
			if slot >= 0 {
				return 0, 0, fmt.Errorf("sqldb: ambiguous column %s", ref.Name)
			}
			slot, col = si, i
		}
	}
	if slot < 0 {
		return 0, 0, fmt.Errorf("%w: %s", ErrNoSuchColumn, ref.Name)
	}
	return slot, col, nil
}

func failing(err error) evalFn {
	return func(*frame) (Value, error) { return Value{}, err }
}

// compile lowers e against the scope's tables.
func (sc scope) compile(e Expr) evalFn {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func(*frame) (Value, error) { return v, nil }
	case *Placeholder:
		idx := x.Idx
		return func(fr *frame) (Value, error) {
			if idx >= len(fr.params) {
				return Value{}, fmt.Errorf("sqldb: missing parameter %d", idx+1)
			}
			return fr.params[idx], nil
		}
	case *ColumnRef:
		slot, col, err := sc.column(x)
		if err != nil {
			return failing(err)
		}
		return func(fr *frame) (Value, error) { return fr.rows[slot].vals()[col], nil }
	case *BinaryExpr:
		return sc.compileBinary(x)
	default:
		return failing(fmt.Errorf("sqldb: cannot evaluate %T", e))
	}
}

// cmpTruth maps a comparison operator to its result for Compare's -1, 0, +1.
var cmpTruth = map[string][3]bool{
	"=":  {false, true, false},
	"<>": {true, false, true},
	"<":  {true, false, false},
	"<=": {true, true, false},
	">":  {false, false, true},
	">=": {false, true, true},
}

func (sc scope) compileBinary(x *BinaryExpr) evalFn {
	l, r := sc.compile(x.Left), sc.compile(x.Right)
	switch x.Op {
	case "AND", "OR":
		// Short-circuit with three-valued logic: decided is the operand
		// value that settles the result whatever the other side is.
		decided := x.Op == "OR"
		return func(fr *frame) (Value, error) {
			lv, err := l(fr)
			if err != nil {
				return Value{}, err
			}
			if !lv.IsNull() && lv.AsBool() == decided {
				return Bool(decided), nil
			}
			rv, err := r(fr)
			if err != nil {
				return Value{}, err
			}
			if !rv.IsNull() && rv.AsBool() == decided {
				return Bool(decided), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Bool(!decided), nil
		}
	case "LIKE":
		pat := analyseLike("")
		slot, col, isCol := sc.plainColumn(x.Left)
		return func(fr *frame) (Value, error) {
			lv, rv, ok, err := operands(l, r, fr)
			if !ok {
				return Value{}, err
			}
			if p := rv.AsString(); p != pat.text {
				pat = analyseLike(p)
			}
			if pat.substr && isCol && lv.K == KindString {
				return Bool(strings.Contains(fr.rows[slot].fold(col), pat.needle)), nil
			}
			return Bool(likeMatch(lv.AsString(), pat.text)), nil
		}
	}
	if truth, ok := cmpTruth[x.Op]; ok {
		return func(fr *frame) (Value, error) {
			lv, rv, ok, err := operands(l, r, fr)
			if !ok {
				return Value{}, err
			}
			return Bool(truth[Compare(lv, rv)+1]), nil
		}
	}
	return failing(fmt.Errorf("sqldb: unknown operator %s", x.Op))
}

// operands evaluates the two sides of a non-logical operator left to right.
// ok is false when one raised (err is set) or either is NULL, which every
// such operator propagates: the caller returns the zero Value and err.
func operands(l, r evalFn, fr *frame) (lv, rv Value, ok bool, err error) {
	if lv, err = l(fr); err == nil {
		if rv, err = r(fr); err == nil {
			ok = lv.K != KindNull && rv.K != KindNull
		}
	}
	return lv, rv, ok, err
}

// likePattern is one analysed LIKE pattern. An ASCII pattern of the form
// %needle% with no inner wildcard — the applications' keyword search — whose
// subject is a stored TEXT column is a substring search of the row's folded
// copy (row.fold), which is the subject lower-cased exactly as likeMatch
// lower-cases it, so the two agree on every subject. Every other pattern and
// operand goes through likeMatch, which stays the reference.
type likePattern struct {
	text   string
	substr bool   // text is %needle%
	needle string // lower-cased
}

func analyseLike(p string) likePattern {
	pat := likePattern{text: p}
	if n := len(p); n >= 2 && p[0] == '%' && p[n-1] == '%' && isASCII(p) && !strings.ContainsAny(p[1:n-1], "%_") {
		pat.substr, pat.needle = true, strings.ToLower(p[1:n-1])
	}
	return pat
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char),
// case-insensitively (matching MySQL's default collation behavior, which the
// applications' keyword search relies on): both operands are lower-cased with
// strings.ToLower, then matched byte for byte.
func likeMatch(s, pattern string) bool {
	return likeRec(strings.ToLower(s), strings.ToLower(pattern))
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// likeRec matches the pattern p against s.
func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}
