package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// execSelect runs a SELECT under a cached plan: single-table statements get
// a one-pass filter-and-project scan (optionally walking an ordered index),
// joins and aggregations run the nested-loop path with per-level index
// probes.
func (db *DB) execSelect(s *SelectStmt, args []Value) (*Result, error) {
	pl, hit, err := db.selectPlanFor(s)
	if err != nil {
		return nil, err
	}
	if pl.single != nil {
		if pl.single.walk != nil {
			return db.execOrderedWalk(s, pl, args, hit)
		}
		return db.execSelectSingle(s, pl, args, hit)
	}
	return db.execSelectJoin(s, pl, args, hit)
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

// execSelectSingle runs a non-aggregated single-table SELECT in one pass:
// each surviving row is projected and its sort keys evaluated immediately,
// with no per-row context retained.
func (db *DB) execSelectSingle(s *SelectStmt, pl *selectPlan, args []Value, hit bool) (*Result, error) {
	t := pl.tabs[0]
	ctx := evalCtx{params: args, tables: []boundTable{{name: pl.names[0], t: t}}}

	probes := 0
	bucket, probed := resolveProbe(pl.levels[0].cands, &ctx)

	virtual := 0
	actual := 0
	usedIndex := false
	var scan []int
	fullScan := false
	if probed {
		scan = bucket
		virtual = len(bucket)
		usedIndex = true
		probes++
	} else {
		virtual = t.live
		if cands, p, narrowed := accessCandidates(pl.single.access, &ctx); narrowed {
			probes += p
			scan = cands
		} else {
			fullScan = true
		}
	}

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
	if fullScan {
		for _, r := range t.rows {
			if r.dead {
				continue
			}
			if err := visit(r); err != nil {
				return nil, err
			}
		}
	} else {
		for _, pos := range scan {
			if err := visit(t.rows[pos]); err != nil {
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
	rows = sliceWindow(rows, s.Offset, s.Limit)

	return &Result{
		Cols:          pl.cols,
		Rows:          rows,
		Scanned:       virtual,
		IndexUsed:     usedIndex,
		ScannedActual: actual,
		IndexProbes:   probes,
		PlanCached:    hit,
		Cost:          db.cost.cost(virtual, 0, len(rows)),
	}, nil
}

// execOrderedWalk produces an ORDER BY result by walking the ordered index,
// terminating early once OFFSET+LIMIT rows have been accepted. The virtual
// scan figure stays t.live — what the full-scan-and-sort plan reported.
func (db *DB) execOrderedWalk(s *SelectStmt, pl *selectPlan, args []Value, hit bool) (*Result, error) {
	t := pl.tabs[0]
	w := pl.single.walk
	ctx := evalCtx{params: args, tables: []boundTable{{name: pl.names[0], t: t}}}
	virtual := t.live
	actual := 0
	var rows [][]Value
	skip := s.Offset
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
		if skip > 0 {
			skip--
			return false, nil
		}
		out, err := projectRow(s, &ctx, len(pl.cols))
		if err != nil {
			return false, err
		}
		rows = append(rows, out)
		return s.Limit >= 0 && len(rows) >= s.Limit, nil
	}
	keys := w.ix.keys
	done := false
	if !w.desc {
		for i := 0; i < len(keys) && !done; i++ {
			for _, pos := range w.ix.m[keys[i]] {
				d, err := visit(pos)
				if err != nil {
					return nil, err
				}
				if d {
					done = true
					break
				}
			}
		}
	} else {
		for i := len(keys) - 1; i >= 0 && !done; i-- {
			for _, pos := range w.ix.m[keys[i]] {
				d, err := visit(pos)
				if err != nil {
					return nil, err
				}
				if d {
					done = true
					break
				}
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

// execSelectJoin runs joins and aggregated queries: recursive nested loops
// with per-level index probes, retaining a context per matched combination
// for grouping and ordering. Virtual and actual scan counts coincide here —
// the legacy access decisions are preserved exactly; the savings come from
// plan reuse and allocation elimination.
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
		if i > 0 && s.JoinOn[i] != nil {
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
	if pl.aggregated {
		grouped, err := groupRows(s, matches, args)
		if err != nil {
			return nil, err
		}
		rows = grouped
	} else {
		for _, ctx := range matches {
			out, err := projectRow(s, ctx, len(pl.cols))
			if err != nil {
				return nil, err
			}
			rows = append(rows, out)
		}
	}

	// Sort before deduplicating so that DISTINCT keeps rows in order and
	// row/match alignment holds while sort keys are evaluated.
	if len(s.OrderBy) > 0 {
		if err := orderRows(s, rows, matches, args); err != nil {
			return nil, err
		}
	}

	if s.Distinct {
		rows = distinctRows(rows)
	}
	rows = sliceWindow(rows, s.Offset, s.Limit)

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

// sliceWindow applies OFFSET then LIMIT, preserving the original engine's
// exact slicing semantics.
func sliceWindow(rows [][]Value, offset, limit int) [][]Value {
	if offset > 0 {
		if offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[offset:]
		}
	}
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
		if item.Alias != "" {
			cols = append(cols, item.Alias)
			continue
		}
		cols = append(cols, exprName(item.Expr))
	}
	return cols
}

func exprName(e Expr) string {
	switch x := e.(type) {
	case *ColumnRef:
		return x.Name
	case *FuncCall:
		return strings.ToLower(x.Name)
	default:
		return "expr"
	}
}

func itemsHaveAggregate(items []SelectItem) bool {
	for _, it := range items {
		if !it.Star && hasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// projectRow computes the output row for one match in non-aggregate mode;
// ncols is the plan's output column count, so the row is allocated once.
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

// groupRows groups matches by GROUP BY keys (one global group when absent)
// and evaluates the select items per group.
func groupRows(s *SelectStmt, matches []*evalCtx, args []Value) ([][]Value, error) {
	type group struct {
		rows []*evalCtx
	}
	var orderKeys []string
	groups := make(map[string]*group)
	for _, ctx := range matches {
		gk := ""
		for _, ge := range s.GroupBy {
			v, err := ctx.eval(ge)
			if err != nil {
				return nil, err
			}
			gk += v.String() + "\x00"
		}
		g, ok := groups[gk]
		if !ok {
			g = &group{}
			groups[gk] = g
			orderKeys = append(orderKeys, gk)
		}
		g.rows = append(g.rows, ctx)
	}
	// With no GROUP BY and no matches, aggregates still yield one row.
	if len(s.GroupBy) == 0 && len(matches) == 0 {
		groups[""] = &group{}
		orderKeys = append(orderKeys, "")
	}
	var rows [][]Value
	for _, gk := range orderKeys {
		g := groups[gk]
		if s.Having != nil {
			keep, err := evalAggregate(s.Having, g.rows, args)
			if err != nil {
				return nil, err
			}
			if !keep.AsBool() {
				continue
			}
		}
		var out []Value
		for _, item := range s.Items {
			if item.Star {
				return nil, fmt.Errorf("sqldb: SELECT * with aggregation is not supported")
			}
			v, err := evalAggregate(item.Expr, g.rows, args)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		rows = append(rows, out)
	}
	return rows, nil
}

// evalAggregate evaluates e over a group of row contexts: aggregate calls
// fold over the group; bare columns take their value from the first row.
func evalAggregate(e Expr, group []*evalCtx, args []Value) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *Placeholder:
		if x.Idx >= len(args) {
			return Value{}, fmt.Errorf("sqldb: missing parameter %d", x.Idx+1)
		}
		return args[x.Idx], nil
	case *ColumnRef:
		if len(group) == 0 {
			return Null(), nil
		}
		return group[0].resolve(x)
	case *FuncCall:
		if !aggregateFuncs[x.Name] {
			if len(group) == 0 {
				return Null(), nil
			}
			return group[0].evalScalarFunc(x)
		}
		return foldAggregate(x, group)
	case *BinaryExpr:
		l, err := evalAggregate(x.Left, group, args)
		if err != nil {
			return Value{}, err
		}
		r, err := evalAggregate(x.Right, group, args)
		if err != nil {
			return Value{}, err
		}
		tmp := &evalCtx{params: args}
		return tmp.evalBinary(&BinaryExpr{Op: x.Op, Left: &Literal{Val: l}, Right: &Literal{Val: r}})
	case *UnaryExpr:
		v, err := evalAggregate(x.X, group, args)
		if err != nil {
			return Value{}, err
		}
		tmp := &evalCtx{params: args}
		return tmp.eval(&UnaryExpr{Op: x.Op, X: &Literal{Val: v}})
	default:
		return Value{}, fmt.Errorf("sqldb: unsupported expression %T under aggregation", e)
	}
}

func foldAggregate(fc *FuncCall, group []*evalCtx) (Value, error) {
	if fc.Name == "COUNT" && fc.Star {
		return Int(int64(len(group))), nil
	}
	if len(fc.Args) != 1 {
		return Value{}, fmt.Errorf("sqldb: %s takes exactly one argument", fc.Name)
	}
	count := int64(0)
	var sum float64
	sumIsInt := true
	var sumInt int64
	var minV, maxV Value
	for _, ctx := range group {
		v, err := ctx.eval(fc.Args[0])
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		count++
		switch fc.Name {
		case "SUM", "AVG":
			if !v.numeric() {
				return Value{}, fmt.Errorf("sqldb: %s over non-numeric value %v", fc.Name, v)
			}
			if v.K != KindInt {
				sumIsInt = false
			}
			sumInt += v.AsInt()
			sum += v.AsFloat()
		case "MIN":
			if minV.IsNull() || Compare(v, minV) < 0 {
				minV = v
			}
		case "MAX":
			if maxV.IsNull() || Compare(v, maxV) > 0 {
				maxV = v
			}
		}
	}
	switch fc.Name {
	case "COUNT":
		return Int(count), nil
	case "SUM":
		if count == 0 {
			return Null(), nil
		}
		if sumIsInt {
			return Int(sumInt), nil
		}
		return Float(sum), nil
	case "AVG":
		if count == 0 {
			return Null(), nil
		}
		return Float(sum / float64(count)), nil
	case "MIN":
		return minV, nil
	case "MAX":
		return maxV, nil
	}
	return Value{}, fmt.Errorf("sqldb: unknown aggregate %s", fc.Name)
}

// orderRows sorts rows per ORDER BY. In non-aggregate mode the sort keys are
// evaluated against the original match contexts; in aggregate mode ORDER BY
// may only reference output columns by alias or position in the select list.
func orderRows(s *SelectStmt, rows [][]Value, matches []*evalCtx, args []Value) error {
	aggregated := len(s.GroupBy) > 0 || itemsHaveAggregate(s.Items)
	keys := make([][]Value, len(rows))
	for i := range rows {
		ks := make([]Value, len(s.OrderBy))
		for j, ok := range s.OrderBy {
			var v Value
			var err error
			if aggregated {
				v, err = orderKeyFromOutput(s, ok.Expr, rows[i])
			} else {
				v, err = matches[i].eval(ok.Expr)
			}
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

// orderKeyFromOutput resolves an ORDER BY expression in aggregate mode by
// matching it against a select-item alias or column name.
func orderKeyFromOutput(s *SelectStmt, e Expr, out []Value) (Value, error) {
	ref, ok := e.(*ColumnRef)
	if !ok {
		return Value{}, fmt.Errorf("sqldb: ORDER BY with aggregation must reference an output column")
	}
	idx := 0
	for _, item := range s.Items {
		if item.Star {
			return Value{}, fmt.Errorf("sqldb: ORDER BY with SELECT * aggregation is not supported")
		}
		name := item.Alias
		if name == "" {
			name = exprName(item.Expr)
		}
		if name == ref.Name {
			return out[idx], nil
		}
		idx++
	}
	return Value{}, fmt.Errorf("sqldb: ORDER BY column %s not in select list", ref.Name)
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
