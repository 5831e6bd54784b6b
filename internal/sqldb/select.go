package sqldb

import "slices"

// A SELECT runs in two passes. Pass 1 collects the accepted rows as position
// tuples (one position per FROM table) into plan scratch — by nested loops
// with a probe per level, or by walking an ordered index's buckets in key
// order — and orders them. Pass 2 builds the result, which the caller holds
// by value, never aliases plan scratch and is a shared, read-only snapshot:
// a single-table SELECT * hands back the stored value slices themselves,
// capacity cut to length — no allocation for one row, whose stored view is
// the row list, and one (the row list) for more; projections, joins and
// DISTINCT project into one slab (two allocations whatever the row count).
// Stored rows are never written in place, so no later write or Restore
// changes a result.
//
// A plan that has once done more than a point lookup memoises its Result by
// bound arguments while the version of every table it reads stands still: a
// hit is the Result a fresh run would return, its cost included, and shares
// its row list and rows with every other hit. The first
// run after a write to any of its tables empties the memo; a plan rebuild
// drops it. A bare whole-table read (no WHERE, ORDER BY or LIMIT), a
// snapshot's, always runs.

// memoCap bounds the tuples one plan memoises (Pet Store's largest is 100).
const memoCap = 1024

// memoKey is a SELECT's bound arguments; a statement with more arguments
// than it holds is not memoised.
type memoKey struct {
	n    int
	args [2]Value
}

// selectRun is a selectPlan's execution scratch, reused under db.mu.
type selectRun struct {
	fr   frame
	cur  []int       // the tuple being extended, one position per level
	pos  []int       // accepted tuples, flattened
	ord  []int       // tuple numbers in result order (ORDER BY only)
	keys []Value     // evaluated ORDER BY keys per tuple (non-plain keys only)
	last map[key]int // DISTINCT: first column's key -> latest kept row with it
	prev []int       // DISTINCT: kept row -> the kept row before it with its key, or -1

	scanned, probes int
	usedIndex       bool
}

func (db *DB) execSelect(s *SelectStmt, args []Value) (Result, error) {
	pl, hit, err := db.selectPlanFor(s)
	if err != nil {
		return Result{}, err
	}
	var k memoKey
	if len(args) > len(k.args) || s.Where == nil && s.OrderBy == nil && s.Limit < 0 {
		return db.runSelect(pl, hit, s, args) // a bare whole-table read is a snapshot's
	}
	k.n = copy(k.args[:], args)
	var v uint64 // versions only grow, so their sum moves exactly when one does
	for _, t := range pl.tabs {
		v += t.version
	}
	if pl.memoVersion != v {
		clear(pl.memo) // read before a write
		pl.memoVersion = v
	}
	if res, found := pl.memo[k]; found {
		res.PlanCached = hit
		return res, nil
	}
	res, err := db.runSelect(pl, hit, s, args)
	if err != nil || pl.memo == nil && res.ScannedActual <= 1 && len(res.Rows) <= 1 {
		return res, err // a point lookup is already one probe
	}
	if pl.memo == nil {
		pl.memo = make(map[memoKey]Result)
	}
	if len(pl.memo) < memoCap {
		pl.memo[k] = res
	}
	return res, nil
}

// runSelect executes a SELECT's plan.
func (db *DB) runSelect(pl *selectPlan, hit bool, s *SelectStmt, args []Value) (Result, error) {
	run := &pl.run
	run.fr.params = append(run.fr.params[:0], args...)
	run.pos = run.pos[:0]
	run.scanned, run.probes, run.usedIndex = 0, 0, false
	res := Result{Cols: &pl.cols, PlanCached: hit}
	var err error
	if pl.walk != nil {
		// The virtual scan figure stays the row count — what match-then-sort
		// reports.
		res.Scanned, res.IndexProbes = len(pl.tabs[0].rows), 1
		err = pl.walkIndex(s.Limit)
	} else {
		err = pl.match(0)
		res.Scanned, res.IndexProbes, res.IndexUsed = run.scanned, run.probes, run.usedIndex
	}
	if err != nil {
		return Result{}, err
	}
	res.ScannedActual = run.scanned
	n := len(pl.tabs)
	m := len(run.pos) / n
	ordered := len(pl.order) > 0 && pl.walk == nil
	if ordered {
		if err := pl.sortMatches(m); err != nil {
			return Result{}, err
		}
	}
	// Projection precedes DISTINCT and LIMIT, so a row LIMIT drops still
	// raises its evaluation error — unless projection cannot fail.
	if pl.plainItems && !s.Distinct && s.Limit >= 0 && s.Limit < m {
		m = s.Limit
	}
	switch {
	case m == 1 && pl.star:
		k := 0
		if ordered {
			k = run.ord[0]
		}
		res.Rows = pl.tabs[0].rows[run.pos[k]].view[:]
	case m > 0:
		width := len(pl.cols)
		var slab []Value
		if !pl.star {
			slab = make([]Value, m*width)
		}
		res.Rows = make([][]Value, m)
		for i := range res.Rows {
			k := i
			if ordered {
				k = run.ord[i]
			}
			if pl.star {
				vals := pl.tabs[0].rows[run.pos[k]].vals()
				res.Rows[i] = vals[:width:width]
				continue
			}
			pl.bind(k)
			out := slab[i*width : (i+1)*width : (i+1)*width]
			if err := pl.project(out); err != nil {
				return Result{}, err
			}
			res.Rows[i] = out
		}
		if s.Distinct {
			res.Rows = run.distinct(res.Rows)
		}
		if s.Limit >= 0 && s.Limit < len(res.Rows) {
			res.Rows = res.Rows[:s.Limit]
		}
	}
	res.Cost = Cost(res.Scanned, 0, len(res.Rows))
	return res, nil
}

// match extends the current tuple with every row of level i that passes the
// level's ON condition, probing an index where the plan found a candidate; a
// complete tuple that passes WHERE is accepted. Virtual and actual scan
// counts coincide here: the legacy access decisions are preserved exactly.
func (pl *selectPlan) match(i int) error {
	run := &pl.run
	if i == len(pl.tabs) {
		if pl.where != nil {
			v, err := pl.where(&run.fr)
			if err != nil || !v.AsBool() {
				return err
			}
		}
		run.pos = append(run.pos, run.cur...)
		return nil
	}
	t := pl.tabs[i]
	if bucket, probed := resolveProbe(pl.levels[i].cands, &run.fr); probed {
		run.usedIndex = true
		run.probes++
		for _, pos := range bucket {
			if err := pl.step(i, pos, t.rows[pos]); err != nil {
				return err
			}
		}
		return nil
	}
	for pos, r := range t.rows {
		if err := pl.step(i, pos, r); err != nil {
			return err
		}
	}
	return nil
}

func (pl *selectPlan) step(i, pos int, r *row) error {
	run := &pl.run
	run.scanned++
	run.fr.rows[i], run.cur[i] = r, pos
	if on := pl.levels[i].on; on != nil {
		v, err := on(&run.fr)
		if err != nil || !v.AsBool() {
			return err
		}
	}
	return pl.match(i + 1)
}

// walkIndex accepts rows in the ordered index's key order, iterating its
// sorted buckets (backwards for DESC) — within one key a bucket is in
// position order, which is what a stable sort leaves — and stops once limit
// rows (negative: no limit) have been accepted.
func (pl *selectPlan) walkIndex(limit int) error {
	run, t, w := &pl.run, pl.tabs[0], pl.walk
	buckets := w.ix.sorted
	for i := range buckets {
		b := buckets[i]
		if w.desc {
			b = buckets[len(buckets)-1-i]
		}
		for _, pos := range b.pos {
			if limit >= 0 && len(run.pos) >= limit {
				return nil
			}
			run.scanned++
			if pl.where != nil {
				run.fr.rows[0] = t.rows[pos]
				v, err := pl.where(&run.fr)
				if err != nil {
					return err
				}
				if !v.AsBool() {
					continue
				}
			}
			run.pos = append(run.pos, pos)
		}
	}
	return nil
}

// bind makes tuple k the frame's current rows.
func (pl *selectPlan) bind(k int) {
	n := len(pl.tabs)
	for slot, pos := range pl.run.pos[k*n : (k+1)*n] {
		pl.run.fr.rows[slot] = pl.tabs[slot].rows[pos]
	}
}

// project writes the frame's output row into out.
func (pl *selectPlan) project(out []Value) error {
	fr := &pl.run.fr
	o := 0
	for _, item := range pl.items {
		if item == nil {
			for _, r := range fr.rows {
				o += copy(out[o:], r.vals())
			}
			continue
		}
		v, err := item(fr)
		if err != nil {
			return err
		}
		out[o] = v
		o++
	}
	return nil
}

// sortMatches fills run.ord with the m accepted tuples' numbers in ORDER BY
// order. Tuples are accepted in ascending position order, so breaking ties
// by tuple number is the stable order. Plain keys compare the stored values
// in place; anything else is evaluated once per tuple first.
func (pl *selectPlan) sortMatches(m int) error {
	run := &pl.run
	n, nk := len(pl.tabs), len(pl.order)
	run.ord = run.ord[:0]
	for k := 0; k < m; k++ {
		run.ord = append(run.ord, k)
	}
	if !pl.plainOrder {
		run.keys = run.keys[:0]
		for k := 0; k < m; k++ {
			pl.bind(k)
			for _, key := range pl.order {
				v, err := key.val(&run.fr)
				if err != nil {
					return err
				}
				run.keys = append(run.keys, v)
			}
		}
	}
	slices.SortFunc(run.ord, func(a, b int) int {
		for j, key := range pl.order {
			var c int
			if pl.plainOrder {
				rows := pl.tabs[key.slot].rows
				c = Compare(rows[run.pos[a*n+key.slot]].vals()[key.col], rows[run.pos[b*n+key.slot]].vals()[key.col])
			} else {
				c = Compare(run.keys[a*nk+j], run.keys[b*nk+j])
			}
			if c != 0 {
				if key.desc {
					return -c
				}
				return c
			}
		}
		return a - b
	})
	return nil
}

// outputColumns derives result column names.
func outputColumns(s *SelectStmt, tabs []*table) []string {
	var cols []string
	for _, item := range s.Items {
		if item.Star {
			for _, t := range tabs {
				for _, c := range t.cols {
					cols = append(cols, c.Name)
				}
			}
			continue
		}
		cols = append(cols, exprName(item.Expr))
	}
	return cols
}

func exprName(e Expr) string {
	if ref, ok := e.(*ColumnRef); ok {
		return ref.Name
	}
	return "expr"
}

// distinct removes duplicate rows in place, keeping first occurrences. Rows
// are duplicates when their values' distinctKeys are equal column by column.
// A row is hashed by its first column and compared in full with the kept
// rows chained under the same first key.
func (run *selectRun) distinct(rows [][]Value) [][]Value {
	if run.last == nil {
		run.last = make(map[key]int, len(rows))
	}
	clear(run.last)
	run.prev = run.prev[:0]
	out := rows[:0]
next:
	for _, r := range rows {
		k := r[0].distinctKey()
		head, ok := run.last[k]
		if !ok {
			head = -1
		}
		for j := head; j >= 0; j = run.prev[j] {
			if slices.EqualFunc(out[j], r, func(a, b Value) bool { return a.distinctKey() == b.distinctKey() }) {
				continue next
			}
		}
		run.last[k] = len(out)
		run.prev = append(run.prev, head)
		out = append(out, r)
	}
	return out
}
