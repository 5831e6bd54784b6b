package container

import (
	"slices"

	"wadeploy/internal/sqldb"
)

// State is the field values a writer hands the container — an Insert's
// fields, an UpdateFields change set — and a stateful bean's conversational
// state, keyed by column name. What the container holds and returns is a Row.
type State map[string]sqldb.Value

// Clone returns a copy of the state.
func (st State) Clone() State {
	out := make(State, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// row returns the state as a Row, columns sorted by name.
func (st State) row() Row {
	cols := st.sorted(nil)
	return st.over(&cols)
}

// sorted appends the state's column names to buf and sorts them.
func (st State) sorted(buf []string) []string {
	for c := range st {
		buf = append(buf, c)
	}
	slices.Sort(buf)
	return buf
}

// over returns the state as a Row over cols, which it keeps. The values have
// room for one more: the primary key an UPDATE's WHERE binds after them.
func (st State) over(cols *[]string) Row {
	vals := make([]sqldb.Value, len(*cols), len(*cols)+1)
	for i, c := range *cols {
		vals[i] = st[c]
	}
	return Row{cols, vals}
}

// Row is an entity's field values as the container holds and returns them:
// column names shared with the statement that produced them, and one value
// per column by ordinal. A Row has no setter, so once built it never changes
// and is shared by reference — by a commit, the updates it propagates, every
// replica that stores it and every reader served from one. The zero Row has
// no columns.
type Row struct {
	cols *[]string
	vals []sqldb.Value
}

// RowOf returns the row holding vals[i] in column (*cols)[i]. It keeps both,
// so the caller must not change them; rows built over one column list share
// it.
func RowOf(cols *[]string, vals []sqldb.Value) Row { return Row{cols, vals} }

// Rows is a SELECT result's rows as a read-only view: the result's row list
// and the column names of the plan that produced it, shared, no copy. A
// result is a snapshot sqldb never reuses or changes. The zero Rows is empty.
type Rows struct {
	cols *[]string
	vals [][]sqldb.Value
}

// RowsOf returns res's rows as a view, without allocating.
func RowsOf(res sqldb.Result) Rows { return Rows{res.Cols, res.Rows} }

// Len returns the number of rows.
func (rs Rows) Len() int { return len(rs.vals) }

// At returns row i.
func (rs Rows) At(i int) Row { return Row{rs.cols, rs.vals[i]} }

// Slice returns the rows as a list a holder can mix with rows of other
// column lists, sharing their values: one allocation.
func (rs Rows) Slice() []Row {
	out := make([]Row, len(rs.vals))
	for i := range out {
		out[i] = rs.At(i)
	}
	return out
}

// FirstRow returns a SELECT result's first row, or the zero Row when it has
// none, without allocating.
func FirstRow(res sqldb.Result) Row {
	if res.Len() == 0 {
		return Row{}
	}
	return Row{res.Cols, res.Rows[0]}
}

// IsZero reports whether r is the zero Row.
func (r Row) IsZero() bool { return r.cols == nil }

// Len returns the number of columns.
func (r Row) Len() int { return len(r.vals) }

// columns returns the column names, shared: the caller must not change them.
func (r Row) columns() []string {
	if r.cols == nil {
		return nil
	}
	return *r.cols
}

// Get returns col's value. A column the row lacks reads NULL.
func (r Row) Get(col string) sqldb.Value {
	if i := r.index(col); i >= 0 {
		return r.vals[i]
	}
	return sqldb.Null()
}

func (r Row) index(col string) int { return slices.Index(r.columns(), col) }

// With returns a new row: r with delta's values over it, and any column of
// delta that r lacks appended. Neither r nor delta changes.
func (r Row) With(delta Row) Row { return r.over(nil, delta) }

// over is With building the values in buf's array (nil: a new one). buf may
// be r's own values only where nobody else holds r: the coalescer's copy.
func (r Row) over(buf []sqldb.Value, delta Row) Row {
	out := Row{r.cols, append(buf[:0], r.vals...)}
	for i, c := range delta.columns() {
		if j := out.index(c); j >= 0 {
			out.vals[j] = delta.vals[i]
			continue
		}
		if out.cols == r.cols {
			cols := slices.Clone(r.columns())
			out.cols = &cols
		}
		*out.cols = append(*out.cols, c)
		out.vals = append(out.vals, delta.vals[i])
	}
	return out
}
