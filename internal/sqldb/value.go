// Package sqldb implements a small embedded relational database with the SQL
// subset the two applications issue: CREATE TABLE, CREATE [UNIQUE] INDEX,
// INSERT, UPDATE and SELECT [DISTINCT] with WHERE, inner joins, ORDER BY,
// LIMIT and LIKE, over hash indexes; each statement is atomic. A feature
// exists here iff a program reaches it (make inventory checks); everything
// else fails Parse.
//
// A statement is parsed once per text and planned once per schema epoch. The
// plan holds every expression of the statement compiled to a closure over
// column ordinals (eval.go), the access decision for each table, and the
// scratch an execution reuses; plans run under the database mutex, one
// execution at a time. A SELECT collects the accepted row positions (an
// indexed ORDER BY walks the index's key-sorted buckets, never hashing) and
// orders them. A Result is returned by value and its rows are shared,
// read-only snapshots: a single-table SELECT * returns the stored value
// slices, capacity cut to length (one allocation, the row list, whatever the
// row count; none for a single row, whose view its row struct holds), any
// other SELECT one slab (two), a repeat its plan memoised while the tables it
// reads stood still nothing, and stored rows are never written in place: a
// one-row write returns the new row it stored. Arguments are copied into
// plan scratch, never kept, so a caller's variadic arguments stay on its
// stack; the write hook gets a copy of its own. A col LIKE '%word%' searches a
// lower-cased copy of the stored value, made once per row version. A Value is
// 32 bytes: a kind, one int64 that holds an INT, the bits of a FLOAT or a
// predicate's 0/1, and a string.
//
// It substitutes for the Oracle/MySQL servers of the paper's testbed: the
// entity beans' loads, stores and finders and the applications'
// listing queries execute against it. A fixed cost model (Cost) reports a
// virtual service time per statement so the discrete-event simulation can
// charge database work to the DB node's CPU.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// Value kinds. Null is deliberately the zero value so that the zero Value is
// SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value, 32 bytes. The zero value is NULL.
// I holds an INT, the IEEE bits of a FLOAT, or a predicate result's 0/1; use
// the constructors and As* accessors rather than the fields.
type Value struct {
	K Kind
	I int64
	S string
}

// Constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{K: KindInt, I: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{K: KindFloat, I: int64(math.Float64bits(v))} }

// Str returns a string value.
func Str(v string) Value { return Value{K: KindString, S: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// f is a FLOAT's value.
func (v Value) f() float64 { return math.Float64frombits(uint64(v.I)) }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsInt returns the value as int64 (floats truncate). NULL is 0.
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt:
		return v.I
	case KindFloat:
		return int64(v.f())
	case KindBool:
		return v.I
	case KindString:
		n, _ := strconv.ParseInt(v.S, 10, 64)
		return n
	default:
		return 0
	}
}

// AsFloat returns the value as float64. NULL is 0.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.f()
	case KindString:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	default:
		return 0
	}
}

// AsString renders the value as a string.
func (v Value) AsString() string {
	switch v.K {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		return strconv.FormatBool(v.I != 0)
	default:
		return ""
	}
}

// AsBool returns the value interpreted as a boolean. NULL is false.
func (v Value) AsBool() bool {
	switch v.K {
	case KindBool, KindInt:
		return v.I != 0
	case KindFloat:
		return v.f() != 0
	case KindString:
		return v.S != ""
	default:
		return false
	}
}

// String implements fmt.Stringer for debugging output.
func (v Value) String() string {
	if v.K == KindNull {
		return "NULL"
	}
	if v.K == KindString {
		return "'" + v.S + "'"
	}
	return v.AsString()
}

func (v Value) numeric() bool { return v.K == KindInt || v.K == KindFloat }

// Compare orders two values: -1, 0 or +1. NULL sorts before everything.
// Numeric kinds compare cross-kind; other mismatched kinds compare by kind.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.numeric() && b.numeric() {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KindString:
		return strings.Compare(a.S, b.S)
	case KindBool:
		return int(a.I - b.I)
	default:
		return 0
	}
}

// key is a comparable form of Value suitable for use as a map key in hash
// indexes. Numeric values normalize to float64 so that Int(3) and Float(3)
// hash identically, matching Compare. A predicate result (KindBool) shares
// the zero key with NULL: no column stores one, nothing stored equals
// either, and every probed bucket is re-filtered by the full predicate.
type key struct {
	k Kind
	f float64
	s string
}

func (v Value) mapKey() key {
	switch v.K {
	case KindInt:
		return key{k: KindFloat, f: float64(v.I)}
	case KindFloat:
		return key{k: KindFloat, f: v.f()}
	case KindString:
		return key{k: KindString, s: v.S}
	default:
		return key{}
	}
}

// distinctKey is v's identity under DISTINCT: its index key, so Int(1) equals
// Float(1) as Compare says, except that a predicate's true and false stay
// apart from NULL and from each other, and every NaN is one value.
func (v Value) distinctKey() key {
	switch {
	case v.K == KindBool:
		return key{k: KindBool, f: float64(v.I)}
	case v.K == KindFloat && math.IsNaN(v.f()):
		return key{k: KindFloat, s: "NaN"}
	}
	return v.mapKey()
}

// compareKey orders index keys consistently with Compare over the values
// they were derived from: NULL (the zero key) sorts first, numeric keys are
// already normalized to KindFloat by mapKey, and mismatched kinds order by
// kind id exactly as Compare orders mismatched non-numeric values.
func compareKey(a, b key) int {
	if a.k != b.k {
		if a.k < b.k {
			return -1
		}
		return 1
	}
	switch a.k {
	case KindFloat:
		switch {
		case a.f < b.f:
			return -1
		case a.f > b.f:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(a.s, b.s)
	default:
		return 0
	}
}

// coerce converts v to the column kind where a lossless-enough conversion
// exists; otherwise it returns an error.
func coerce(v Value, to Kind) (Value, error) {
	if v.K == KindNull || v.K == to {
		return v, nil
	}
	switch to {
	case KindInt:
		if v.numeric() {
			return Int(v.AsInt()), nil
		}
	case KindFloat:
		if v.numeric() {
			return Float(v.AsFloat()), nil
		}
	case KindString:
		return Str(v.AsString()), nil
	}
	return Value{}, fmt.Errorf("sqldb: cannot coerce %v (%v) to %v", v, v.K, to)
}
