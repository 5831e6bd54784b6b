package sqldb

import (
	"fmt"
	"strings"
)

// boundTable is one table's current row inside an evaluation context.
type boundTable struct {
	name string // alias or table name as referenced in the query
	t    *table
	vals []Value
}

// evalCtx evaluates expressions against zero or more bound rows plus
// statement parameters.
type evalCtx struct {
	tables []boundTable
	params []Value
}

func (c *evalCtx) resolve(ref *ColumnRef) (Value, error) {
	// Fast path: the per-statement cache remembers which bound-table slot
	// and column index this reference resolved to last time. The pointer
	// comparison against the cached *table revalidates the map lookup.
	if ref.cachedT != nil && ref.cachedSlot < len(c.tables) {
		bt := &c.tables[ref.cachedSlot]
		if bt.t == ref.cachedT && (ref.Table != "" && bt.name == ref.Table ||
			ref.Table == "" && len(c.tables) == 1) {
			return bt.vals[ref.cachedCol], nil
		}
	}
	if ref.Table != "" {
		for si := range c.tables {
			bt := &c.tables[si]
			if bt.name == ref.Table {
				i, ok := bt.t.colIdx[ref.Name]
				if !ok {
					return Value{}, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, ref.Table, ref.Name)
				}
				ref.cachedT, ref.cachedSlot, ref.cachedCol = bt.t, si, i
				return bt.vals[i], nil
			}
		}
		return Value{}, fmt.Errorf("%w: unknown table %s", ErrNoSuchColumn, ref.Table)
	}
	found := -1
	var v Value
	for _, bt := range c.tables {
		if i, ok := bt.t.colIdx[ref.Name]; ok {
			if found >= 0 {
				return Value{}, fmt.Errorf("sqldb: ambiguous column %s", ref.Name)
			}
			found = i
			v = bt.vals[i]
		}
	}
	if found < 0 {
		return Value{}, fmt.Errorf("%w: %s", ErrNoSuchColumn, ref.Name)
	}
	// Only a single-table context can cache an unqualified reference:
	// with several tables bound the ambiguity check must rerun, and a
	// partially-bound join context could later gain a clashing table.
	if len(c.tables) == 1 {
		ref.cachedT, ref.cachedSlot, ref.cachedCol = c.tables[0].t, 0, found
	}
	return v, nil
}

func (c *evalCtx) eval(e Expr) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *Placeholder:
		if x.Idx >= len(c.params) {
			return Value{}, fmt.Errorf("sqldb: missing parameter %d", x.Idx+1)
		}
		return c.params[x.Idx], nil
	case *ColumnRef:
		return c.resolve(x)
	case *BinaryExpr:
		return c.evalBinary(x)
	default:
		return Value{}, fmt.Errorf("sqldb: cannot evaluate %T", e)
	}
}

func (c *evalCtx) evalBinary(x *BinaryExpr) (Value, error) {
	// Short-circuit logical operators with three-valued logic.
	switch x.Op {
	case "AND":
		l, err := c.eval(x.Left)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNull() && !l.AsBool() {
			return Bool(false), nil
		}
		r, err := c.eval(x.Right)
		if err != nil {
			return Value{}, err
		}
		if !r.IsNull() && !r.AsBool() {
			return Bool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(true), nil
	case "OR":
		l, err := c.eval(x.Left)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNull() && l.AsBool() {
			return Bool(true), nil
		}
		r, err := c.eval(x.Right)
		if err != nil {
			return Value{}, err
		}
		if !r.IsNull() && r.AsBool() {
			return Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(false), nil
	}
	l, err := c.eval(x.Left)
	if err != nil {
		return Value{}, err
	}
	r, err := c.eval(x.Right)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		cmp := Compare(l, r)
		var b bool
		switch x.Op {
		case "=":
			b = cmp == 0
		case "<>":
			b = cmp != 0
		case "<":
			b = cmp < 0
		case "<=":
			b = cmp <= 0
		case ">":
			b = cmp > 0
		case ">=":
			b = cmp >= 0
		}
		return Bool(b), nil
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(likeMatch(l.AsString(), r.AsString())), nil
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		if x.Op == "+" && (l.K == KindString || r.K == KindString) {
			return Str(l.AsString() + r.AsString()), nil
		}
		if !l.numeric() || !r.numeric() {
			return Value{}, fmt.Errorf("sqldb: arithmetic on non-numeric values %v %s %v", l, x.Op, r)
		}
		if l.K == KindInt && r.K == KindInt {
			switch x.Op {
			case "+":
				return Int(l.I + r.I), nil
			case "-":
				return Int(l.I - r.I), nil
			case "*":
				return Int(l.I * r.I), nil
			case "/":
				if r.I == 0 {
					return Null(), nil
				}
				return Int(l.I / r.I), nil
			}
		}
		lf, rf := l.AsFloat(), r.AsFloat()
		switch x.Op {
		case "+":
			return Float(lf + rf), nil
		case "-":
			return Float(lf - rf), nil
		case "*":
			return Float(lf * rf), nil
		case "/":
			if rf == 0 {
				return Null(), nil
			}
			return Float(lf / rf), nil
		}
	}
	return Value{}, fmt.Errorf("sqldb: unknown operator %s", x.Op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char),
// case-insensitively (matching MySQL's default collation behavior, which the
// applications' keyword search relies on). ASCII operands — all the hot
// keyword-search traffic — fold per byte during the match; anything with
// multi-byte runes is lowercased up front, after which the per-byte fold
// is the identity.
func likeMatch(s, pattern string) bool {
	if isASCII(s) && isASCII(pattern) {
		return likeRecFold(s, pattern)
	}
	return likeRecFold(strings.ToLower(s), strings.ToLower(pattern))
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func lowerByte(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}

// likeRecFold matches p against s with per-byte ASCII case folding, avoiding
// the ToLower copies of both operands on every row.
func likeRecFold(s, p string) bool {
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
				if likeRecFold(s[i:], p) {
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
			if len(s) == 0 || lowerByte(s[0]) != lowerByte(p[0]) {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}
