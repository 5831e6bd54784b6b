package sqldb

import "fmt"

// This file is the query planner: it turns a parsed statement plus the
// current schema into a cached physical plan whose expressions are compiled
// (eval.go). Plans hang off the AST nodes (each AST belongs to exactly one DB
// via its prepared-statement cache), revalidate against the owning DB and
// its schema epoch on every use, and own the scratch an execution needs:
// plans only run under db.mu, so one execution at a time uses it.
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
	ix  *index // index covering the column, or nil
	val evalFn // value side of the equality, compiled against the shallower levels
}

// resolveProbe walks a level's probe candidates in conjunct order; the
// first one whose value evaluates decides probe-vs-scan — indexed or not.
func resolveProbe(cands []probeCand, fr *frame) (bucket []int, probed bool) {
	for _, c := range cands {
		v, err := c.val(fr)
		if err != nil {
			continue
		}
		if c.ix != nil {
			return c.ix.lookup(v.mapKey()), true
		}
		break
	}
	return nil, false
}

// planStamp says which database and schema epoch a plan was built for; a
// cached plan is valid while its stamp equals db.stamp().
type planStamp struct {
	db    *DB
	epoch int64
}

func (db *DB) stamp() planStamp { return planStamp{db, db.epoch} }

// setOp is one compiled SET clause of an UPDATE.
type setOp struct {
	col int
	val evalFn
}

// updatePlan is the plan of an UPDATE: the access decision for row
// matching, the compiled WHERE and SET clauses, and the execution scratch.
type updatePlan struct {
	planStamp
	t     *table
	cands []probeCand
	where evalFn // nil when absent
	sets  []setOp

	fr      frame
	pos     []int     // matched row positions
	newVals [][]Value // the new row per matched position
	oldRows []*row    // the replaced row per applied position
}

// level is one FROM table of a SELECT: its probe candidates, matched against
// the tables bound at shallower join levels, and its compiled ON condition.
type level struct {
	cands []probeCand
	on    evalFn // nil for the first table
}

// orderedWalk says a single-table ORDER BY can be produced by walking the
// ordered index instead of match-then-sort.
type orderedWalk struct {
	ix   *index
	desc bool
}

// orderKey is one compiled ORDER BY term; plain keys also carry the stored
// column they name.
type orderKey struct {
	val       evalFn
	slot, col int
	desc      bool
}

// selectPlan caches table binding, output columns, per-level access
// decisions and every compiled expression of a SELECT.
type selectPlan struct {
	planStamp
	tabs   []*table
	cols   []string
	levels []level
	walk   *orderedWalk // single-table only; nil means match, then sort
	where  evalFn       // nil when absent
	items  []evalFn     // nil entry: a star
	order  []orderKey

	// plainItems: every item is a star or a resolved column, so projection
	// cannot fail and LIMIT may cut the matches before it. plainOrder: every
	// ORDER BY key is a resolved column, so matches sort by stored values.
	// star: a single-table SELECT * without DISTINCT, whose result rows are
	// the stored value slices themselves.
	plainItems, plainOrder, star bool

	run         selectRun
	memo        map[memoKey]Result // memoised results (select.go); nil until the plan does more than a point lookup
	memoVersion uint64             // the sum of tabs' versions every memo entry was read at
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

// evaluable reports whether e can evaluate using only the scope's tables and
// parameters. The dynamic failure modes (out-of-range placeholder, type
// errors) surface at execution and are handled there.
func (sc scope) evaluable(e Expr) bool {
	switch x := e.(type) {
	case *Literal, *Placeholder:
		return true
	case *ColumnRef:
		_, _, err := sc.column(x)
		return err == nil
	case *BinaryExpr:
		return sc.evaluable(x.Left) && sc.evaluable(x.Right)
	default:
		return false
	}
}

// eqCands collects, in conjunct order and both orientations, the equality
// conjuncts of pred that side accepts as a probe candidate.
func eqCands(pred Expr, side func(l, r Expr) (probeCand, bool)) []probeCand {
	if pred == nil {
		return nil
	}
	var cands []probeCand
	for _, c := range andConjuncts(pred, nil) {
		be, ok := c.(*BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		if pc, ok := side(be.Left, be.Right); ok {
			cands = append(cands, pc)
		}
		if pc, ok := side(be.Right, be.Left); ok {
			cands = append(cands, pc)
		}
	}
	return cands
}

// matchEqSide mirrors the legacy shape test for UPDATE: a column of
// t against a literal or placeholder.
func matchEqSide(t *table, l, r Expr) (probeCand, bool) {
	ref, ok := l.(*ColumnRef)
	if !ok || (ref.Table != "" && ref.Table != t.name) {
		return probeCand{}, false
	}
	c, ok := t.colIdx[ref.Name]
	if !ok {
		return probeCand{}, false
	}
	switch r.(type) {
	case *Literal, *Placeholder:
		return probeCand{ix: t.indexOn(c), val: scope{}.compile(r)}, true
	}
	return probeCand{}, false
}

// selectEqSide mirrors the legacy shape test for one SELECT join level: a
// column of t against an expression evaluable from the already-bound tables.
func selectEqSide(t *table, name string, l, r Expr, bound scope) (probeCand, bool) {
	ref, ok := l.(*ColumnRef)
	if !ok || (ref.Table != "" && ref.Table != name) {
		return probeCand{}, false
	}
	col, ok := t.colIdx[ref.Name]
	if !ok {
		return probeCand{}, false
	}
	if ref.Table == "" {
		// Unqualified: must not be ambiguous with a bound table.
		for _, bt := range bound.tabs {
			if _, clash := bt.colIdx[ref.Name]; clash {
				return probeCand{}, false
			}
		}
	}
	if !bound.evaluable(r) {
		return probeCand{}, false
	}
	return probeCand{ix: t.indexOn(col), val: bound.compile(r)}, true
}

// updatePlanFor returns the UPDATE's cached plan when it is still valid for
// db's current schema, rebuilding it otherwise. A plan that fails to build is
// never cached, so every execution reports the error.
func (db *DB) updatePlanFor(s *UpdateStmt) (*updatePlan, bool, error) {
	if pl := s.plan; pl != nil && pl.planStamp == db.stamp() {
		return pl, true, nil
	}
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	sc := scope{tabs: []*table{t}, names: []string{s.Table}}
	pl := &updatePlan{planStamp: db.stamp(), t: t, fr: frame{rows: make([]*row, 1)}}
	for _, a := range s.Sets {
		c, err := t.col(a.Col)
		if err != nil {
			return nil, false, err
		}
		pl.sets = append(pl.sets, setOp{col: c, val: sc.compile(a.Expr)})
	}
	if s.Where != nil {
		pl.where = sc.compile(s.Where)
		pl.cands = eqCands(s.Where, func(l, r Expr) (probeCand, bool) { return matchEqSide(t, l, r) })
	}
	s.plan = pl
	return pl, false, nil
}

// selectPlanFor returns the SELECT's cached plan when still valid,
// rebuilding it otherwise. Plans that fail to build (unknown table,
// duplicate alias) are never cached so every execution reports the error.
func (db *DB) selectPlanFor(s *SelectStmt) (*selectPlan, bool, error) {
	if pl := s.plan; pl != nil && pl.planStamp == db.stamp() {
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
	n := len(s.From)
	all := scope{tabs: make([]*table, n), names: make([]string, n)}
	seen := make(map[string]bool, n)
	for i, ref := range s.From {
		t, ok := db.tables[ref.Table]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, ref.Table)
		}
		all.tabs[i], all.names[i] = t, ref.Name()
		if seen[all.names[i]] {
			return nil, fmt.Errorf("sqldb: duplicate table name %s in FROM", all.names[i])
		}
		seen[all.names[i]] = true
	}
	pl := &selectPlan{
		planStamp:  db.stamp(),
		tabs:       all.tabs,
		cols:       outputColumns(s, all.tabs),
		levels:     make([]level, n),
		plainItems: true,
		plainOrder: true,
		star:       n == 1 && len(s.Items) == 1 && s.Items[0].Star && !s.Distinct,
		run:        selectRun{fr: frame{rows: make([]*row, n)}, cur: make([]int, n)},
	}
	// Each expression is compiled against exactly the table prefix it is
	// evaluated with: probe values see the shallower levels, an ON condition
	// its own level too, everything else every table.
	for i, t := range all.tabs {
		bound := scope{tabs: all.tabs[:i], names: all.names[:i]}
		probe, name := s.Where, all.names[i]
		if i > 0 {
			probe = s.JoinOn[i]
			pl.levels[i].on = scope{tabs: all.tabs[:i+1], names: all.names[:i+1]}.compile(probe)
		}
		pl.levels[i].cands = eqCands(probe, func(l, r Expr) (probeCand, bool) { return selectEqSide(t, name, l, r, bound) })
	}
	if s.Where != nil {
		pl.where = all.compile(s.Where)
	}
	for _, item := range s.Items {
		if item.Star {
			pl.items = append(pl.items, nil)
			continue
		}
		pl.items = append(pl.items, all.compile(item.Expr))
		if _, _, ok := all.plainColumn(item.Expr); !ok {
			pl.plainItems = false
		}
	}
	for _, ok := range s.OrderBy {
		key := orderKey{val: all.compile(ok.Expr), desc: ok.Desc}
		var plain bool
		if key.slot, key.col, plain = all.plainColumn(ok.Expr); !plain {
			pl.plainOrder = false
		}
		pl.order = append(pl.order, key)
	}
	if n == 1 {
		pl.walk = orderedWalkFor(s, pl)
	}
	return pl, nil
}

// plainColumn reports the slot and ordinal of e when it is a column
// reference that resolves.
func (sc scope) plainColumn(e Expr) (slot, col int, ok bool) {
	ref, isRef := e.(*ColumnRef)
	if !isRef {
		return 0, 0, false
	}
	slot, col, err := sc.column(ref)
	return slot, col, err == nil
}

// orderedWalkFor decides whether the result can be produced by walking an
// ordered index instead of match-then-sort. The legacy candidate list must
// be empty so the virtual scan figure is the row count on every execution.
func orderedWalkFor(s *SelectStmt, pl *selectPlan) *orderedWalk {
	if s.Distinct || len(pl.order) != 1 || !pl.plainOrder || len(pl.levels[0].cands) != 0 {
		return nil
	}
	ix := pl.tabs[0].indexOn(pl.order[0].col)
	if ix == nil {
		return nil
	}
	return &orderedWalk{ix: ix, desc: pl.order[0].desc}
}

// match finds the rows an UPDATE touches, in ascending position order, into
// pl.pos. It reports whether an index narrowed the scan and the number of
// rows visited — the virtual and the actual figure coincide: a probed
// bucket's length, or every row.
func (pl *updatePlan) match(args []Value) (probed bool, scanned int, err error) {
	t := pl.t
	pl.fr.params = append(pl.fr.params[:0], args...)
	pl.pos = pl.pos[:0]
	visit := func(pos int, r *row) error {
		if pl.where != nil {
			pl.fr.rows[0] = r
			v, err := pl.where(&pl.fr)
			if err != nil || !v.AsBool() {
				return err
			}
		}
		pl.pos = append(pl.pos, pos)
		return nil
	}
	bucket, probed := resolveProbe(pl.cands, &pl.fr)
	if probed {
		for _, pos := range bucket {
			if err := visit(pos, t.rows[pos]); err != nil {
				return false, 0, err
			}
		}
		return true, len(bucket), nil
	}
	for pos, r := range t.rows {
		if err := visit(pos, r); err != nil {
			return false, 0, err
		}
	}
	return false, len(t.rows), nil
}
