package sqldb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Common executor errors.
var (
	ErrNoSuchTable  = errors.New("sqldb: no such table")
	ErrNoSuchColumn = errors.New("sqldb: no such column")
	ErrDuplicateKey = errors.New("sqldb: duplicate key")
	ErrNotNull      = errors.New("sqldb: NOT NULL constraint violated")
)

// The cost model converts executor work counters into a virtual service
// time so the simulation can charge database CPU. It approximates a
// well-indexed year-2002 database server: sub-millisecond point queries,
// milliseconds for scans of hundreds of rows.
const (
	perStatement   = 300 * time.Microsecond // fixed parse/plan/dispatch overhead
	perRowScanned  = 4 * time.Microsecond   // per row examined
	perRowWritten  = 40 * time.Microsecond  // per row inserted/updated
	perRowReturned = 2 * time.Microsecond   // per row in the result set
)

// Cost is the service time of one statement that examined scanned rows,
// wrote written and returned returned.
func Cost(scanned, written, returned int) time.Duration {
	return perStatement +
		time.Duration(scanned)*perRowScanned +
		time.Duration(written)*perRowWritten +
		time.Duration(returned)*perRowReturned
}

// Result is the outcome of one statement, returned by value: it lives in the
// caller's frame, and only its rows' storage is ever on the heap.
type Result struct {
	// Cols is the result's column names: a SELECT's cached plan's own list,
	// or the table's for a single-row INSERT or UPDATE, so a holder that
	// keeps the pointer keeps no Result. The caller must not change it.
	Cols *[]string

	// Rows is the result rows, a shared, read-only snapshot. A single-table
	// SELECT * returns the stored value slices; any other SELECT, its own
	// slab. The plan memoises the row list, unless it reads a whole table
	// bare, and drops it on its first run after a write to any table it
	// reads. A write returns the row it stored when it wrote one (RETURNING
	// *), counted as none.
	Rows [][]Value

	Affected int // rows inserted/updated
	Scanned  int // rows examined (virtual: the cost model's view)
	Cost     time.Duration

	// IndexUsed reports whether a hash index narrowed the scan (SELECT and
	// UPDATE; always false for other statements).
	IndexUsed bool

	// ScannedActual counts the rows the chosen physical plan really
	// visited. Scanned stays pinned to the original engine's figure so the
	// simulation charges identical virtual CPU regardless of plan choice;
	// ScannedActual is where ordered-index scans and early termination
	// show up.
	ScannedActual int

	// IndexProbes counts index lookups performed while executing.
	IndexProbes int

	// PlanCached reports whether the statement reused a cached query plan
	// (SELECT and UPDATE only).
	PlanCached bool
}

// Len returns the number of result rows.
func (r *Result) Len() int { return len(r.Rows) }

// row is one stored tuple, never changed once stored: UPDATE and its undo
// install another row, which is why a snapshot and a SELECT * result may
// share its values.
type row struct {
	// view is {vals}, full-capped: the Rows of a SELECT * or a write that
	// returns this row alone. A snapshot copies it with the struct.
	view [1][]Value

	// folded is vals with every TEXT value lower-cased (strings.ToLower),
	// built by the first folded LIKE that reads the row. Only the row
	// struct, which no other database shares, points at it.
	folded *[]string
}

// blocks are a database's row structs and values: a write takes the next
// slots, so it allocates only its share of a block, sized by slices.Grow to
// fill its size class. No slot is handed out twice, not even a failed
// statement's, and slices of slots are full-capped, so rows stay immutable
// snapshots. A replaced row is collected with its block, not alone.
type blocks struct {
	rows []row
	vals []Value
}

const rowBlock, valBlock = 64, 128 // slots per block, before slices.Grow rounds up

// take returns the next n slots of *block, starting a new block of at least
// size slots when fewer are left.
func take[T any](block *[]T, n, size int) []T {
	if len(*block) < n {
		*block = slices.Grow([]T(nil), max(n, size))
		*block = (*block)[:cap(*block)]
	}
	s := (*block)[:n:n]
	*block = (*block)[n:]
	return s
}

// row returns a new stored row holding vals, which it keeps.
func (b *blocks) row(vals []Value) *row {
	r := &take(&b.rows, 1, rowBlock)[0]
	r.view[0] = vals[:len(vals):len(vals)]
	return r
}

// vals returns the row's values, read-only.
func (r *row) vals() []Value { return r.view[0] }

// fold returns the lower-cased copy of the row's TEXT value in column col.
// Like every execution it runs under db.mu.
func (r *row) fold(col int) string {
	if r.folded == nil {
		f := make([]string, len(r.vals()))
		for i, v := range r.vals() {
			if v.K == KindString {
				f[i] = strings.ToLower(v.S)
			}
		}
		r.folded = &f
	}
	return (*r.folded)[col]
}

// bucket is one key of an index and the row positions holding it.
type bucket struct {
	k     key
	pos   []int  // ascending, never empty
	first [1]int // pos's array while it holds one position
}

const bucketBlock = 64 // buckets an index allocates at once

// index is a hash index over a single column whose buckets are also held in
// key order, so an ORDER BY on the column walks them without hashing. Two
// invariants hold at all times:
//
//   - sorted holds exactly the buckets of m, ordered by compareKey;
//   - every bucket holds its row positions in ascending order.
//
// The second invariant makes every access path — full scan, hash probe,
// ordered walk within one key — enumerate candidates in the same
// row-position order, which is what keeps result row order identical across
// plan choices.
type index struct {
	name   string
	col    int
	unique bool
	m      map[key]*bucket
	sorted []*bucket
	spare  []bucket // the unused rest of the index's last bucket block
}

func newIndex(name string, col int, unique bool) *index {
	return &index{name: name, col: col, unique: unique, m: make(map[key]*bucket)}
}

// lookup returns the row positions holding k, ascending.
func (ix *index) lookup(k key) []int {
	if b := ix.m[k]; b != nil {
		return b.pos
	}
	return nil
}

func (ix *index) add(k key, pos int) {
	b := ix.m[k]
	if b == nil {
		if len(ix.spare) == 0 {
			ix.spare = make([]bucket, bucketBlock)
		}
		b, ix.spare = &ix.spare[0], ix.spare[1:]
		b.k, b.pos = k, b.first[:0]
		ix.m[k] = b
		n := len(ix.sorted)
		// Monotonically growing keys (sequential primary keys) append.
		if n == 0 || compareKey(ix.sorted[n-1].k, k) < 0 {
			ix.sorted = append(ix.sorted, b)
		} else {
			ix.sorted = slices.Insert(ix.sorted, ix.search(k), b)
		}
	}
	// New rows get the highest position, so appends dominate.
	if n := len(b.pos); n == 0 || b.pos[n-1] < pos {
		b.pos = append(b.pos, pos)
		return
	}
	b.pos = slices.Insert(b.pos, sort.SearchInts(b.pos, pos), pos)
}

func (ix *index) remove(k key, pos int) {
	b := ix.m[k]
	if b == nil {
		return
	}
	i := sort.SearchInts(b.pos, pos)
	if i >= len(b.pos) || b.pos[i] != pos {
		return
	}
	b.pos = slices.Delete(b.pos, i, i+1)
	if len(b.pos) > 0 {
		return
	}
	delete(ix.m, k)
	j := ix.search(k)
	if j >= len(ix.sorted) || ix.sorted[j] != b {
		// compareKey is no total order once a NaN is stored.
		j = slices.Index(ix.sorted, b)
	}
	ix.sorted = slices.Delete(ix.sorted, j, j+1)
}

// search returns the position of the first bucket whose key is not below k.
func (ix *index) search(k key) int {
	i, _ := slices.BinarySearchFunc(ix.sorted, k, func(b *bucket, k key) int { return compareKey(b.k, k) })
	return i
}

// table is the physical storage for one table: rows are appended and
// replaced, never removed, except that a failed INSERT drops its own.
type table struct {
	name    string
	cols    []ColumnDef
	names   []string // the column names, in order: a write's Result.Cols
	colIdx  map[string]int
	pk      int // primary key column index, or -1
	rows    []*row
	indexes []*index
	blocks  *blocks // where its rows are stored: its database's

	// version counts row writes: every insert, replacement and truncation,
	// undo included. A memoised SELECT result stays valid while the
	// versions of the tables it reads are the ones it was read at.
	version uint64
}

func (t *table) col(name string) (int, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.name, name)
	}
	return i, nil
}

// indexOn returns an index covering column c, or nil.
func (t *table) indexOn(c int) *index {
	for _, ix := range t.indexes {
		if ix.col == c {
			return ix
		}
	}
	return nil
}

// DB is an embedded relational database. Statements are atomic and safe for
// concurrent use.
type DB struct {
	mu       sync.Mutex
	tables   map[string]*table
	prepared map[string]*Prepared
	blocks   blocks

	// epoch counts schema changes (CREATE TABLE, CREATE INDEX, Restore).
	// Cached query plans record the epoch they were built at and rebuild
	// when it moves.
	epoch int64

	// profiling records every successful statement's StatementInfo into
	// profile, so a Snapshot can replay the seed script's observer stream
	// into databases seeded by Restore.
	profiling bool
	profile   []StatementInfo

	// onWrite, when set, observes every successful mutating statement
	// (INSERT/UPDATE with at least one affected row) with its SQL
	// text and bound arguments — the hook statement-based replication
	// (dbrepl) ships its log from.
	onWrite func(sql string, args []Value)

	// observer, when set, sees every successful statement's execution
	// profile — the metrics layer's view into the database.
	observer func(StatementInfo)
}

// StatementInfo describes one executed statement for an observer.
type StatementInfo struct {
	// Stmt identifies the prepared statement: one per statement text and
	// database, the same pointer on every execution, so an observer can key
	// what it resolves per statement by it. A Restore replays the seeding
	// database's identities.
	Stmt *StmtID

	Verb      string // select, insert, update, create-table, create-index
	Table     string // target table (first FROM table for joins)
	Scanned   int    // rows examined (virtual: the cost model's view)
	Written   int    // rows inserted/updated
	Returned  int    // result rows
	IndexUsed bool   // a hash index narrowed the scan

	ScannedActual int  // rows the physical plan really visited
	IndexProbes   int  // index lookups performed
	Planned       bool // statement verb goes through the plan cache
	PlanHit       bool // plan was served from the cache
}

// StmtID is the identity of one prepared statement (StatementInfo.Stmt).
type StmtID struct {
	SQL string // the statement text
}

// New returns an empty database.
func New() *DB {
	return &DB{
		tables:   make(map[string]*table),
		prepared: make(map[string]*Prepared),
	}
}

// PreparedTexts returns, sorted, every statement text in the
// prepared-statement cache: the distinct statements this database has been
// asked to parse, by Exec, PrepareStmt or Describe.
func (db *DB) PreparedTexts() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	texts := make([]string, 0, len(db.prepared))
	for sql := range db.prepared {
		texts = append(texts, sql)
	}
	sort.Strings(texts)
	return texts
}

// prepareLocked parses sql through the prepared-statement cache. db.mu must
// be held.
func (db *DB) prepareLocked(sql string) (*Prepared, error) {
	if p, ok := db.prepared[sql]; ok {
		return p, nil
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	p := &Prepared{db: db, sql: sql, st: st}
	switch s := st.(type) {
	case *SelectStmt:
		p.info = StatementInfo{Verb: "select", Table: s.From[0].Table, Planned: true}
	case *InsertStmt:
		p.info, p.write = StatementInfo{Verb: "insert", Table: s.Table}, true
	case *UpdateStmt:
		p.info, p.write = StatementInfo{Verb: "update", Table: s.Table, Planned: true}, true
	case *CreateTableStmt:
		p.info = StatementInfo{Verb: "create-table", Table: s.Name}
	case *CreateIndexStmt:
		p.info = StatementInfo{Verb: "create-index", Table: s.Table}
	}
	p.info.Stmt = &StmtID{SQL: sql}
	p.label = p.info.Verb + " " + p.info.Table
	db.prepared[sql] = p
	return p, nil
}

// Describe returns a compact "verb table" label for sql ("select item",
// "update account"), parsing through the prepared-statement cache. The
// label is built once per statement text, so repeated calls return the same
// string without allocating — tracing layers can label per-statement spans
// at no steady-state cost. Unparseable text is labeled "sql" (execution
// will surface the error).
func (db *DB) Describe(sql string) string {
	db.mu.Lock()
	defer db.mu.Unlock()
	p, err := db.prepareLocked(sql)
	if err != nil {
		return "sql"
	}
	return p.label
}

// SetWriteHook registers fn to observe every successful mutating statement
// (statement-based replication log). Pass nil to disable. The hook runs
// synchronously with the statement, after it commits, outside db locks'
// caller view — it must not call back into the same DB.
func (db *DB) SetWriteHook(fn func(sql string, args []Value)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.onWrite = fn
}

// SetObserver registers fn to observe every successfully executed statement.
// Pass nil to disable.
// The observer runs synchronously under the database lock and must not call
// back into the same DB.
func (db *DB) SetObserver(fn func(StatementInfo)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.observer = fn
}

// Exec parses (with caching) and executes one statement with ? parameters
// bound to args.
func (db *DB) Exec(sql string, args ...Value) (Result, error) {
	db.mu.Lock()
	p, err := db.prepareLocked(sql)
	if err != nil {
		db.mu.Unlock()
		return Result{}, err
	}
	return p.execAndUnlock(args)
}

// execLocked executes a prepared statement and reports it to the observer:
// the statement's static half (verb, table, planned) was derived when it
// was prepared, the rest comes from the result. db.mu must be held.
func (db *DB) execLocked(p *Prepared, args []Value) (Result, error) {
	res, err := db.dispatchLocked(p.st, args)
	if err == nil && (db.observer != nil || db.profiling) {
		info := p.info
		info.Scanned, info.Written = res.Scanned, res.Affected
		if !p.write {
			info.Returned = len(res.Rows)
		}
		info.IndexUsed, info.PlanHit = res.IndexUsed, res.PlanCached
		info.ScannedActual, info.IndexProbes = res.ScannedActual, res.IndexProbes
		if db.observer != nil {
			db.observer(info)
		}
		if db.profiling {
			db.profile = append(db.profile, info)
		}
	}
	return res, err
}

// dispatchLocked executes a parsed statement. db.mu must be held.
func (db *DB) dispatchLocked(st Stmt, args []Value) (Result, error) {
	switch s := st.(type) {
	case *CreateTableStmt:
		return db.execCreateTable(s)
	case *CreateIndexStmt:
		return db.execCreateIndex(s)
	case *InsertStmt:
		return db.execInsert(s, args)
	case *UpdateStmt:
		return db.execUpdate(s, args)
	case *SelectStmt:
		return db.execSelect(s, args)
	default:
		return Result{}, fmt.Errorf("sqldb: unsupported statement %T", st)
	}
}

func (db *DB) execCreateTable(s *CreateTableStmt) (Result, error) {
	if _, ok := db.tables[s.Name]; ok {
		return Result{}, fmt.Errorf("sqldb: table %s already exists", s.Name)
	}
	t := &table{
		name:   s.Name,
		cols:   append([]ColumnDef(nil), s.Cols...),
		colIdx: make(map[string]int, len(s.Cols)),
		pk:     -1,
		blocks: &db.blocks,
	}
	for i, c := range s.Cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return Result{}, fmt.Errorf("sqldb: duplicate column %s.%s", s.Name, c.Name)
		}
		t.colIdx[c.Name] = i
		t.names = append(t.names, c.Name)
		if c.PrimaryKey {
			if t.pk >= 0 {
				return Result{}, fmt.Errorf("sqldb: table %s has multiple primary keys", s.Name)
			}
			t.pk = i
		}
	}
	if t.pk >= 0 {
		t.indexes = append(t.indexes, newIndex(s.Name+"_pk", t.pk, true))
	}
	db.tables[s.Name] = t
	db.epoch++
	return Result{Cost: Cost(0, 0, 0)}, nil
}

func (db *DB) execCreateIndex(s *CreateIndexStmt) (Result, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	c, err := t.col(s.Col)
	if err != nil {
		return Result{}, err
	}
	for _, ix := range t.indexes {
		if ix.name == s.Name {
			return Result{}, fmt.Errorf("sqldb: index %s already exists", s.Name)
		}
	}
	ix := newIndex(s.Name, c, s.Unique)
	for pos, r := range t.rows {
		v := r.vals()[c]
		k := v.mapKey()
		if s.Unique && len(ix.lookup(k)) > 0 && !v.IsNull() {
			return Result{}, fmt.Errorf("%w: building unique index %s", ErrDuplicateKey, s.Name)
		}
		ix.add(k, pos)
	}
	t.indexes = append(t.indexes, ix)
	db.epoch++
	return Result{Cost: Cost(len(t.rows), 0, 0)}, nil
}

// insertPlan is an INSERT's column binding and compiled value expressions.
type insertPlan struct {
	planStamp
	t      *table
	cols   []string // the named columns, or all of the table's
	colPos []int
	rows   [][]evalFn
	fr     frame
}

func (db *DB) insertPlanFor(s *InsertStmt) (*insertPlan, error) {
	if pl := s.plan; pl != nil && pl.planStamp == db.stamp() {
		return pl, nil
	}
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	pl := &insertPlan{planStamp: db.stamp(), t: t, cols: s.Cols}
	if len(pl.cols) == 0 {
		pl.cols = t.names
	}
	for _, name := range pl.cols {
		c, err := t.col(name)
		if err != nil {
			return nil, err
		}
		pl.colPos = append(pl.colPos, c)
	}
	for _, exprs := range s.Rows {
		row := make([]evalFn, len(exprs))
		for i, e := range exprs {
			row[i] = scope{}.compile(e)
		}
		pl.rows = append(pl.rows, row)
	}
	s.plan = pl
	return pl, nil
}

// row evaluates one VALUES tuple into a new stored row.
func (pl *insertPlan) row(exprs []evalFn) ([]Value, error) {
	t := pl.t
	if len(exprs) != len(pl.cols) {
		return nil, fmt.Errorf("sqldb: insert into %s: %d values for %d columns", t.name, len(exprs), len(pl.cols))
	}
	vals := take(&t.blocks.vals, len(t.cols), valBlock)
	for i, e := range exprs {
		v, err := e(&pl.fr)
		if err != nil {
			return nil, err
		}
		cv, err := coerce(v, t.cols[pl.colPos[i]].Kind)
		if err != nil {
			return nil, fmt.Errorf("insert %s.%s: %w", t.name, pl.cols[i], err)
		}
		vals[pl.colPos[i]] = cv
	}
	return vals, nil
}

func (db *DB) execInsert(s *InsertStmt, args []Value) (Result, error) {
	pl, err := db.insertPlanFor(s)
	if err != nil {
		return Result{}, err
	}
	t := pl.t
	pl.fr.params = append(pl.fr.params[:0], args...)
	first := len(t.rows)
	for _, exprs := range pl.rows {
		vals, err := pl.row(exprs)
		if err == nil {
			err = t.insertRow(vals)
		}
		if err != nil {
			// A failure part-way through a multi-row insert rolls the
			// statement back: statements are atomic.
			t.truncate(first)
			return Result{}, err
		}
	}
	res := Result{Affected: len(pl.rows), Cost: Cost(0, len(pl.rows), 0)}
	if len(pl.rows) == 1 {
		res.Cols, res.Rows = &t.names, t.rows[first].view[:]
	}
	return res, nil
}

// insertRow validates constraints and appends vals to t.
func (t *table) insertRow(vals []Value) error {
	for i, c := range t.cols {
		if c.NotNull && vals[i].IsNull() {
			return fmt.Errorf("%w: %s.%s", ErrNotNull, t.name, c.Name)
		}
	}
	for _, ix := range t.indexes {
		if ix.unique && !vals[ix.col].IsNull() && len(ix.lookup(vals[ix.col].mapKey())) > 0 {
			return fmt.Errorf("%w: %s.%s = %v", ErrDuplicateKey, t.name, t.cols[ix.col].Name, vals[ix.col])
		}
	}
	pos := len(t.rows)
	t.rows = append(t.rows, t.blocks.row(vals))
	t.version++
	for _, ix := range t.indexes {
		ix.add(vals[ix.col].mapKey(), pos)
	}
	return nil
}

// truncate drops the rows from position n on, last first, with their index
// entries: the undo of a multi-row INSERT that failed part-way.
func (t *table) truncate(n int) {
	for pos := len(t.rows) - 1; pos >= n; pos-- {
		for _, ix := range t.indexes {
			ix.remove(t.rows[pos].vals()[ix.col].mapKey(), pos)
		}
		t.rows[pos] = nil
		t.version++
	}
	t.rows = t.rows[:n]
}

// replaceRow installs r as the row at pos, moving its index entries. A
// stored row is never changed in place.
func (t *table) replaceRow(pos int, r *row) {
	old, vals := t.rows[pos].vals(), r.vals()
	for _, ix := range t.indexes {
		oldK, newK := old[ix.col].mapKey(), vals[ix.col].mapKey()
		if oldK != newK {
			ix.remove(oldK, pos)
			ix.add(newK, pos)
		}
	}
	t.rows[pos] = r
	t.version++
}

func (db *DB) execUpdate(s *UpdateStmt, args []Value) (Result, error) {
	pl, hit, err := db.updatePlanFor(s)
	if err != nil {
		return Result{}, err
	}
	probed, scanned, err := pl.match(args)
	if err != nil {
		return Result{}, err
	}
	t := pl.t
	// Phase 1: evaluate and validate every row's new values so a failure
	// leaves the table untouched (statement atomicity).
	pl.newVals = pl.newVals[:0]
	for _, pos := range pl.pos {
		r := t.rows[pos]
		pl.fr.rows[0] = r
		vals := take(&t.blocks.vals, len(r.vals()), valBlock)
		copy(vals, r.vals())
		for j, set := range pl.sets {
			v, err := set.val(&pl.fr)
			if err != nil {
				return Result{}, err
			}
			def := &t.cols[set.col]
			cv, err := coerce(v, def.Kind)
			if err != nil {
				return Result{}, fmt.Errorf("update %s.%s: %w", s.Table, s.Sets[j].Col, err)
			}
			if def.NotNull && cv.IsNull() {
				return Result{}, fmt.Errorf("%w: %s.%s", ErrNotNull, t.name, def.Name)
			}
			vals[set.col] = cv
		}
		pl.newVals = append(pl.newVals, vals)
	}
	// Phase 2: apply with undo-on-conflict so intra-statement unique
	// violations roll the whole statement back.
	pl.oldRows = pl.oldRows[:0]
	for i, pos := range pl.pos {
		old, vals := t.rows[pos], pl.newVals[i]
		for _, ix := range t.indexes {
			if !ix.unique {
				continue
			}
			oldK, newK := old.vals()[ix.col].mapKey(), vals[ix.col].mapKey()
			if oldK != newK && !vals[ix.col].IsNull() && len(ix.lookup(newK)) > 0 {
				for i := len(pl.oldRows) - 1; i >= 0; i-- {
					t.replaceRow(pl.pos[i], pl.oldRows[i])
				}
				return Result{}, fmt.Errorf("%w: %s.%s = %v", ErrDuplicateKey, t.name, t.cols[ix.col].Name, vals[ix.col])
			}
		}
		t.replaceRow(pos, t.blocks.row(vals))
		pl.oldRows = append(pl.oldRows, old)
	}
	// The virtual and the actual scan figure coincide: a probed bucket's
	// length, or every row.
	res := Result{
		Affected:      len(pl.pos),
		Scanned:       scanned,
		IndexUsed:     probed,
		ScannedActual: scanned,
		PlanCached:    hit,
		Cost:          Cost(scanned, len(pl.pos), 0),
	}
	if probed {
		res.IndexProbes = 1
	}
	if len(pl.pos) == 1 {
		res.Cols, res.Rows = &t.names, t.rows[pl.pos[0]].view[:]
	}
	return res, nil
}

// Prepared is a parsed statement bound to its database: a handle whose Exec
// skips the SQL-text map lookup and reuses the statement's cached plan. It
// is immutable; every caller preparing the same text shares one.
type Prepared struct {
	db    *DB
	sql   string
	st    Stmt
	info  StatementInfo // the static half: Stmt, Verb, Table, Planned
	label string        // "verb table", for Describe
	write bool          // st mutates table contents
}

// PrepareStmt parses sql once and returns a reusable handle bound to db.
func (db *DB) PrepareStmt(sql string) (*Prepared, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.prepareLocked(sql)
}

// Exec executes the prepared statement with ? parameters bound to args. It
// behaves exactly like DB.Exec with the handle's SQL text.
func (p *Prepared) Exec(args ...Value) (Result, error) {
	p.db.mu.Lock()
	return p.execAndUnlock(args)
}

// execAndUnlock executes with db.mu held, releases it and then notifies the
// write hook.
func (p *Prepared) execAndUnlock(args []Value) (Result, error) {
	db := p.db
	res, err := db.execLocked(p, args)
	hook := db.onWrite
	db.mu.Unlock()
	if err == nil && hook != nil && p.write && res.Affected > 0 {
		hook(p.sql, slices.Clone(args))
	}
	return res, err
}
