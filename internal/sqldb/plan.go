package sqldb

import "fmt"

// This file is the query planner: it turns a parsed statement plus the
// current schema into a cached physical plan. Plans hang off the AST nodes
// (like the ColumnRef resolution cache, each AST belongs to exactly one DB
// via its prepared-statement cache) and revalidate against the owning DB and
// its schema epoch on every use.
//
// The cardinal rule is that plan choice may change how much work execution
// really does, but never the virtual accounting the simulation charges time
// for: Result.Scanned, Result.Cost and Result.IndexUsed are pinned to what
// the original engine reported, while Result.ScannedActual and
// Result.IndexProbes describe the physical plan. To keep result ROWS
// identical too, every access path enumerates candidate rows in ascending
// row-position order — the same order a full scan produces — so filtering,
// stable sorting and LIMIT see the same sequence whichever path ran.
//
// Three shapes exist beside the full scan, which stays the reference: a hash
// probe on an equality candidate, an index-ordered walk with early stop, and
// an index nested-loop join (a probe per join level).

// probeCand is one equality conjunct that statically matched the legacy
// index-probe shape. Execution walks candidates in conjunct order and the
// first one whose value expression evaluates decides probe-vs-scan, exactly
// as the original engine's dynamic walk did.
type probeCand struct {
	col int
	ix  *index // index covering col, or nil
	val Expr   // value side of the equality
}

// matchPlan caches the access decision for UPDATE/DELETE row matching.
type matchPlan struct {
	db    *DB
	epoch int64
	t     *table
	cands []probeCand
}

// levelPlan holds the probe candidates for one FROM table of a SELECT,
// matched against the tables bound at shallower join levels.
type levelPlan struct {
	cands []probeCand
}

// orderedWalk says a single-table ORDER BY can be produced by walking the
// ordered index instead of materialize-then-sort.
type orderedWalk struct {
	ix   *index
	desc bool
}

// selectPlan caches table binding, output columns and per-level access
// decisions for a SELECT.
type selectPlan struct {
	db     *DB
	epoch  int64
	tabs   []*table
	names  []string
	cols   []string
	levels []levelPlan
	walk   *orderedWalk // single-table only; nil means filter, then sort
}

// andConjuncts flattens a predicate's top-level AND tree left-to-right,
// matching the original engine's pre-order candidate search.
func andConjuncts(e Expr, out []Expr) []Expr {
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		out = andConjuncts(be.Left, out)
		return andConjuncts(be.Right, out)
	}
	return append(out, e)
}

// staticEvaluable mirrors evaluableWith on table definitions alone: whether
// e can evaluate using only the given bound tables and parameters. The
// dynamic failure modes (out-of-range placeholder, type errors) surface at
// execution and are handled there.
func staticEvaluable(e Expr, tabs []*table, names []string) bool {
	switch x := e.(type) {
	case *Literal, *Placeholder:
		return true
	case *ColumnRef:
		return staticResolvable(x, tabs, names)
	case *BinaryExpr:
		return staticEvaluable(x.Left, tabs, names) && staticEvaluable(x.Right, tabs, names)
	default:
		return false
	}
}

// staticResolvable mirrors evalCtx.resolve's success condition over table
// definitions.
func staticResolvable(ref *ColumnRef, tabs []*table, names []string) bool {
	if ref.Table != "" {
		for i, n := range names {
			if n == ref.Table {
				_, ok := tabs[i].colIdx[ref.Name]
				return ok
			}
		}
		return false
	}
	found := 0
	for _, t := range tabs {
		if _, ok := t.colIdx[ref.Name]; ok {
			found++
		}
	}
	return found == 1
}

// matchEqCands mirrors the legacy indexableEq/eqSides shape test for
// UPDATE/DELETE: equality conjuncts between a column of t and a literal or
// placeholder, both orientations, in conjunct order.
func matchEqCands(t *table, conjuncts []Expr) []probeCand {
	var cands []probeCand
	for _, c := range conjuncts {
		be, ok := c.(*BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		if pc, ok := matchEqSide(t, be.Left, be.Right); ok {
			cands = append(cands, pc)
		}
		if pc, ok := matchEqSide(t, be.Right, be.Left); ok {
			cands = append(cands, pc)
		}
	}
	return cands
}

func matchEqSide(t *table, l, r Expr) (probeCand, bool) {
	ref, ok := l.(*ColumnRef)
	if !ok {
		return probeCand{}, false
	}
	if ref.Table != "" && ref.Table != t.name {
		return probeCand{}, false
	}
	c, ok := t.colIdx[ref.Name]
	if !ok {
		return probeCand{}, false
	}
	switch r.(type) {
	case *Literal, *Placeholder:
		return probeCand{col: c, ix: t.indexOn(c), val: r}, true
	}
	return probeCand{}, false
}

// selectProbeCands mirrors the legacy boundEq/boundEqSides shape test for
// one SELECT join level: equality conjuncts between a column of t and an
// expression evaluable from the already-bound tables, both orientations, in
// conjunct order.
func selectProbeCands(t *table, name string, probe Expr, boundTabs []*table, boundNames []string) []probeCand {
	if probe == nil {
		return nil
	}
	var cands []probeCand
	for _, c := range andConjuncts(probe, nil) {
		be, ok := c.(*BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		if pc, ok := selectEqSide(t, name, be.Left, be.Right, boundTabs, boundNames); ok {
			cands = append(cands, pc)
		}
		if pc, ok := selectEqSide(t, name, be.Right, be.Left, boundTabs, boundNames); ok {
			cands = append(cands, pc)
		}
	}
	return cands
}

func selectEqSide(t *table, name string, l, r Expr, boundTabs []*table, boundNames []string) (probeCand, bool) {
	ref, ok := l.(*ColumnRef)
	if !ok {
		return probeCand{}, false
	}
	if ref.Table != "" && ref.Table != name {
		return probeCand{}, false
	}
	col, ok := t.colIdx[ref.Name]
	if !ok {
		return probeCand{}, false
	}
	if ref.Table == "" {
		// Unqualified: must not be ambiguous with a bound table.
		for _, bt := range boundTabs {
			if _, clash := bt.colIdx[ref.Name]; clash {
				return probeCand{}, false
			}
		}
	}
	if !staticEvaluable(r, boundTabs, boundNames) {
		return probeCand{}, false
	}
	return probeCand{col: col, ix: t.indexOn(col), val: r}, true
}

// buildMatchPlan plans UPDATE/DELETE row matching against t.
func buildMatchPlan(db *DB, t *table, where Expr) *matchPlan {
	pl := &matchPlan{db: db, epoch: db.epoch, t: t}
	if where != nil {
		pl.cands = matchEqCands(t, andConjuncts(where, nil))
	}
	return pl
}

// matchPlanCached returns the statement's cached plan when it is still
// valid for db's current schema, rebuilding it otherwise. Runs under db.mu.
func matchPlanCached(slot **matchPlan, db *DB, t *table, where Expr) (*matchPlan, bool) {
	if pl := *slot; pl != nil && pl.db == db && pl.epoch == db.epoch {
		return pl, true
	}
	pl := buildMatchPlan(db, t, where)
	*slot = pl
	return pl, false
}

// selectPlanFor returns the SELECT's cached plan when still valid,
// rebuilding it otherwise. Plans that fail to build (unknown table,
// duplicate alias) are never cached so every execution reports the error.
func (db *DB) selectPlanFor(s *SelectStmt) (*selectPlan, bool, error) {
	if pl := s.plan; pl != nil && pl.db == db && pl.epoch == db.epoch {
		return pl, true, nil
	}
	pl, err := buildSelectPlan(db, s)
	if err != nil {
		return nil, false, err
	}
	s.plan = pl
	return pl, false, nil
}

func buildSelectPlan(db *DB, s *SelectStmt) (*selectPlan, error) {
	tabs := make([]*table, len(s.From))
	names := make([]string, len(s.From))
	seen := make(map[string]bool, len(s.From))
	for i, ref := range s.From {
		t, ok := db.tables[ref.Table]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, ref.Table)
		}
		tabs[i] = t
		names[i] = ref.Name()
		if seen[names[i]] {
			return nil, fmt.Errorf("sqldb: duplicate table name %s in FROM", names[i])
		}
		seen[names[i]] = true
	}
	pl := &selectPlan{
		db:    db,
		epoch: db.epoch,
		tabs:  tabs,
		names: names,
		cols:  outputColumns(s, tabs),
	}
	pl.levels = make([]levelPlan, len(tabs))
	for i := range tabs {
		probe := s.Where
		if i > 0 {
			probe = s.JoinOn[i]
		}
		pl.levels[i] = levelPlan{cands: selectProbeCands(tabs[i], names[i], probe, tabs[:i], names[:i])}
	}
	if len(tabs) == 1 {
		pl.walk = orderedWalkFor(s, tabs[0], names[0], pl.levels[0].cands)
	}
	return pl, nil
}

// orderedWalkFor decides whether the result can be produced by walking an
// ordered index instead of materialize-then-sort. The legacy candidate list
// must be empty so the virtual scan figure is t.live on every execution.
func orderedWalkFor(s *SelectStmt, t *table, name string, cands []probeCand) *orderedWalk {
	if s.Distinct || len(s.OrderBy) != 1 || len(cands) != 0 {
		return nil
	}
	ref, ok := s.OrderBy[0].Expr.(*ColumnRef)
	if !ok || (ref.Table != "" && ref.Table != name) {
		return nil
	}
	col, ok := t.colIdx[ref.Name]
	if !ok {
		return nil
	}
	ix := t.indexOn(col)
	if ix == nil {
		return nil
	}
	return &orderedWalk{ix: ix, desc: s.OrderBy[0].Desc}
}

// matchRowsPlanned matches rows for UPDATE/DELETE under a plan. It returns
// matching positions, the virtual scan count and index flag (pinned to the
// original engine's figures), and the actual rows visited and index probes
// performed by the physical plan.
func (db *DB) matchRowsPlanned(pl *matchPlan, where Expr, args []Value) (out []int, virtual int, usedIndex bool, actual, probes int, err error) {
	t := pl.t
	ctx := evalCtx{params: args, tables: []boundTable{{name: t.name, t: t}}}
	var bucket []int
	probed := false
	for _, c := range pl.cands {
		var v Value
		switch e := c.val.(type) {
		case *Literal:
			v = e.Val
		case *Placeholder:
			if e.Idx >= len(args) {
				continue
			}
			v = args[e.Idx]
		default:
			continue
		}
		if c.ix != nil {
			bucket = c.ix.m[v.mapKey()]
			probed = true
			probes++
		}
		break
	}
	if probed {
		virtual = len(bucket)
		for _, pos := range bucket {
			r := t.rows[pos]
			ctx.tables[0].vals = r.vals
			v, everr := ctx.eval(where)
			if everr != nil {
				return nil, 0, false, 0, 0, everr
			}
			if v.AsBool() {
				out = append(out, pos)
			}
		}
		return out, virtual, true, virtual, probes, nil
	}
	virtual = t.live
	for pos, r := range t.rows {
		if r.dead {
			continue
		}
		actual++
		if where == nil {
			out = append(out, pos)
			continue
		}
		ctx.tables[0].vals = r.vals
		v, everr := ctx.eval(where)
		if everr != nil {
			return nil, 0, false, 0, 0, everr
		}
		if v.AsBool() {
			out = append(out, pos)
		}
	}
	return out, virtual, false, actual, probes, nil
}
