package sqldb

import "sort"

// execSelect runs a SELECT under a cached plan: single-table statements get
// a one-pass filter-and-project scan (optionally walking an ordered index),
// joins run the nested-loop path with per-level index probes.
func (db *DB) execSelect(s *SelectStmt, args []Value) (*Result, error) {
	pl, hit, err := db.selectPlanFor(s)
	if err != nil {
		return nil, err
	}
	switch {
	case pl.walk != nil:
		return db.execOrderedWalk(s, pl, args, hit)
	case len(pl.tabs) == 1:
		return db.execSelectSingle(s, pl, args, hit)
	default:
		return db.execSelectJoin(s, pl, args, hit)
	}
}

// resolveProbe walks a level's probe candidates in conjunct order; the
// first one whose value expression evaluates decides probe-vs-scan, exactly
// as the original engine's dynamic conjunct walk did — indexed or not.
func resolveProbe(cands []probeCand, ctx *evalCtx) (bucket []int, probed bool) {
	for _, c := range cands {
		v, err := ctx.eval(c.val)
		if err != nil {
			continue
		}
		if c.ix != nil {
			return c.ix.m[v.mapKey()], true
		}
		break
	}
	return nil, false
}

// execSelectSingle runs a single-table SELECT in one pass: each surviving
// row is projected and its sort keys evaluated immediately, with no per-row
// context retained.
func (db *DB) execSelectSingle(s *SelectStmt, pl *selectPlan, args []Value, hit bool) (*Result, error) {
	t := pl.tabs[0]
	ctx := evalCtx{params: args, tables: []boundTable{{name: pl.names[0], t: t}}}

	bucket, probed := resolveProbe(pl.levels[0].cands, &ctx)
	virtual, probes := t.live, 0
	if probed {
		virtual, probes = len(bucket), 1
	}
	actual := 0

	needKeys := len(s.OrderBy) > 0
	var rows [][]Value
	var keys [][]Value
	visit := func(r *row) error {
		actual++
		ctx.tables[0].vals = r.vals
		if s.Where != nil {
			v, err := ctx.eval(s.Where)
			if err != nil {
				return err
			}
			if !v.AsBool() {
				return nil
			}
		}
		out, err := projectRow(s, &ctx, len(pl.cols))
		if err != nil {
			return err
		}
		rows = append(rows, out)
		if needKeys {
			ks := make([]Value, len(s.OrderBy))
			for j, ok := range s.OrderBy {
				v, err := ctx.eval(ok.Expr)
				if err != nil {
					return err
				}
				ks[j] = v
			}
			keys = append(keys, ks)
		}
		return nil
	}
	if probed {
		for _, pos := range bucket {
			if err := visit(t.rows[pos]); err != nil {
				return nil, err
			}
		}
	} else {
		for _, r := range t.rows {
			if r.dead {
				continue
			}
			if err := visit(r); err != nil {
				return nil, err
			}
		}
	}

	if needKeys {
		sortKeyedRows(rows, keys, s.OrderBy)
	}
	if s.Distinct {
		rows = distinctRows(rows)
	}
	rows = limitRows(rows, s.Limit)

	return &Result{
		Cols:          pl.cols,
		Rows:          rows,
		Scanned:       virtual,
		IndexUsed:     probed,
		ScannedActual: actual,
		IndexProbes:   probes,
		PlanCached:    hit,
		Cost:          db.cost.cost(virtual, 0, len(rows)),
	}, nil
}

// execOrderedWalk produces an ORDER BY result by walking the ordered index,
// terminating early once LIMIT rows have been accepted. The virtual scan
// figure stays t.live — what the full-scan-and-sort plan reported.
func (db *DB) execOrderedWalk(s *SelectStmt, pl *selectPlan, args []Value, hit bool) (*Result, error) {
	t := pl.tabs[0]
	w := pl.walk
	ctx := evalCtx{params: args, tables: []boundTable{{name: pl.names[0], t: t}}}
	virtual := t.live
	actual := 0
	var rows [][]Value
	if s.Limit == 0 {
		return &Result{
			Cols:        pl.cols,
			Scanned:     virtual,
			IndexProbes: 1,
			PlanCached:  hit,
			Cost:        db.cost.cost(virtual, 0, 0),
		}, nil
	}
	visit := func(pos int) (done bool, err error) {
		r := t.rows[pos]
		actual++
		ctx.tables[0].vals = r.vals
		if s.Where != nil {
			v, err := ctx.eval(s.Where)
			if err != nil {
				return false, err
			}
			if !v.AsBool() {
				return false, nil
			}
		}
		out, err := projectRow(s, &ctx, len(pl.cols))
		if err != nil {
			return false, err
		}
		rows = append(rows, out)
		return s.Limit >= 0 && len(rows) >= s.Limit, nil
	}
	keys := w.ix.keys
walk:
	for i := range keys {
		k := keys[i]
		if w.desc {
			k = keys[len(keys)-1-i]
		}
		for _, pos := range w.ix.m[k] {
			done, err := visit(pos)
			if err != nil {
				return nil, err
			}
			if done {
				break walk
			}
		}
	}
	return &Result{
		Cols:          pl.cols,
		Rows:          rows,
		Scanned:       virtual,
		ScannedActual: actual,
		IndexProbes:   1,
		PlanCached:    hit,
		Cost:          db.cost.cost(virtual, 0, len(rows)),
	}, nil
}

// execSelectJoin runs joins: recursive nested loops with per-level index
// probes, retaining a context per matched combination for ordering. Virtual
// and actual scan counts coincide here — the legacy access decisions are
// preserved exactly; the savings come from plan reuse and allocation
// elimination.
func (db *DB) execSelectJoin(s *SelectStmt, pl *selectPlan, args []Value, hit bool) (*Result, error) {
	tabs, names := pl.tabs, pl.names

	scanned := 0
	probes := 0
	usedIndex := false
	var matches []*evalCtx

	// filter is reused for WHERE and ON evaluation so that rejected row
	// combinations — the overwhelming majority in a scan — cost no
	// allocation; only accepted ones get a retained context of their own.
	// resolver evaluates probe values against the bound prefix. boundArr is
	// the single reusable binding frame, copied only on accept.
	filter := evalCtx{params: args}
	resolver := evalCtx{params: args}
	boundArr := make([]boundTable, len(tabs))
	for i := range tabs {
		boundArr[i] = boundTable{name: names[i], t: tabs[i]}
	}

	// join recursively extends the current row combination table by table.
	var join func(i int) error
	step := func(i int, r *row) (descend bool, err error) {
		if r.dead {
			return false, nil
		}
		scanned++
		boundArr[i].vals = r.vals
		if i > 0 {
			filter.tables = boundArr[:i+1]
			v, err := filter.eval(s.JoinOn[i])
			if err != nil {
				return false, err
			}
			if !v.AsBool() {
				return false, nil
			}
		}
		return true, nil
	}
	join = func(i int) error {
		if i == len(tabs) {
			if s.Where != nil {
				filter.tables = boundArr
				v, err := filter.eval(s.Where)
				if err != nil {
					return err
				}
				if !v.AsBool() {
					return nil
				}
			}
			matches = append(matches, &evalCtx{params: args, tables: append([]boundTable(nil), boundArr...)})
			return nil
		}
		t := tabs[i]
		resolver.tables = boundArr[:i]
		bucket, probed := resolveProbe(pl.levels[i].cands, &resolver)
		if probed {
			usedIndex = true
			probes++
			for _, pos := range bucket {
				descend, err := step(i, t.rows[pos])
				if err != nil {
					return err
				}
				if descend {
					if err := join(i + 1); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for _, r := range t.rows {
			descend, err := step(i, r)
			if err != nil {
				return err
			}
			if descend {
				if err := join(i + 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := join(0); err != nil {
		return nil, err
	}

	var rows [][]Value
	for _, ctx := range matches {
		out, err := projectRow(s, ctx, len(pl.cols))
		if err != nil {
			return nil, err
		}
		rows = append(rows, out)
	}

	// Sort before deduplicating so that DISTINCT keeps rows in order and
	// row/match alignment holds while sort keys are evaluated.
	if len(s.OrderBy) > 0 {
		if err := orderRows(s, rows, matches); err != nil {
			return nil, err
		}
	}

	if s.Distinct {
		rows = distinctRows(rows)
	}
	rows = limitRows(rows, s.Limit)

	return &Result{
		Cols:          pl.cols,
		Rows:          rows,
		Scanned:       scanned,
		IndexUsed:     usedIndex,
		ScannedActual: scanned,
		IndexProbes:   probes,
		PlanCached:    hit,
		Cost:          db.cost.cost(scanned, 0, len(rows)),
	}, nil
}

// limitRows applies LIMIT (negative when absent).
func limitRows(rows [][]Value, limit int) [][]Value {
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
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

// projectRow computes the output row for one match; ncols is the plan's
// output column count, so the row is allocated once.
func projectRow(s *SelectStmt, ctx *evalCtx, ncols int) ([]Value, error) {
	out := make([]Value, 0, ncols)
	for _, item := range s.Items {
		if item.Star {
			for _, bt := range ctx.tables {
				out = append(out, bt.vals...)
			}
			continue
		}
		v, err := ctx.eval(item.Expr)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// orderRows sorts a join's rows per ORDER BY, evaluating the sort keys
// against the match context each row was projected from.
func orderRows(s *SelectStmt, rows [][]Value, matches []*evalCtx) error {
	keys := make([][]Value, len(rows))
	for i := range rows {
		ks := make([]Value, len(s.OrderBy))
		for j, ok := range s.OrderBy {
			v, err := matches[i].eval(ok.Expr)
			if err != nil {
				return err
			}
			ks[j] = v
		}
		keys[i] = ks
	}
	sortKeyedRows(rows, keys, s.OrderBy)
	return nil
}

// sortKeyedRows stably sorts rows in place by their pre-evaluated ORDER BY
// keys, permuting keys alongside.
func sortKeyedRows(rows [][]Value, keys [][]Value, order []OrderKey) {
	type keyed struct {
		row  []Value
		keys []Value
	}
	keyedRows := make([]keyed, len(rows))
	for i := range rows {
		keyedRows[i] = keyed{row: rows[i], keys: keys[i]}
	}
	sort.SliceStable(keyedRows, func(a, b int) bool {
		for j, ok := range order {
			c := Compare(keyedRows[a].keys[j], keyedRows[b].keys[j])
			if c == 0 {
				continue
			}
			if ok.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range rows {
		rows[i] = keyedRows[i].row
	}
}

// distinctRows removes duplicate rows, keeping first occurrences.
func distinctRows(rows [][]Value) [][]Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := ""
		for _, v := range r {
			k += v.String() + "\x00"
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}
