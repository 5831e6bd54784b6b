package sqldb

// Warm-database snapshots. Seeding an experiment database by replaying its
// seed SQL parses, plans and executes thousands of statements; a Snapshot
// captures the seeded state once so later databases can Restore it — a deep
// structural copy with no SQL in the loop.
//
// Row value slices, and each row's one-row view of its slice, are shared
// between the snapshot, every database restored from it and every SELECT *
// result read from those. That is safe because
// the engine never mutates a vals slice in place: UPDATE builds a fresh slice
// and swaps the pointer, and DELETE/rollback only toggle the dead flag.
// Column definitions and name maps are immutable after CREATE TABLE and are
// shared too. A row's folded copy is not carried: each database builds its
// own, under its own mutex.

// Snapshot is an immutable copy of a database's full state.
type Snapshot struct {
	tables map[string]*table

	// profile holds the StatementInfo stream recorded while the source
	// database was seeded (see RecordProfile). Restore replays it into the
	// target's observer so instrumentation sees the same statement stream a
	// SQL replay would have produced.
	profile []StatementInfo
}

// RecordProfile toggles recording of every successful statement's
// StatementInfo, to be carried by a later Snapshot. Turning it off clears
// the recording.
func (db *DB) RecordProfile(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.profiling = on
	if !on {
		db.profile = nil
	}
}

// Snapshot deep-copies the database's current state. The result is safe to
// Restore into any number of databases concurrently.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &Snapshot{tables: make(map[string]*table, len(db.tables))}
	for name, t := range db.tables {
		s.tables[name] = copyTable(t)
	}
	if len(db.profile) > 0 {
		s.profile = append([]StatementInfo(nil), db.profile...)
	}
	return s
}

// Restore replaces the database's tables with a fresh deep copy of the
// snapshot's and replays the recorded seed profile into the observer. The
// write hook is deliberately not fired: restoring is state transfer, not
// statement execution (replication seeds replicas before attaching hooks,
// mirroring InitSchema-based seeding).
func (db *DB) Restore(s *Snapshot) {
	db.mu.Lock()
	db.tables = make(map[string]*table, len(s.tables))
	for name, t := range s.tables {
		db.tables[name] = copyTable(t)
	}
	db.epoch++ // invalidate any cached plans bound to the old tables
	observer := db.observer
	profiling := db.profiling
	if observer != nil || profiling {
		for _, info := range s.profile {
			if observer != nil {
				observer(info)
			}
			if profiling {
				db.profile = append(db.profile, info)
			}
		}
	}
	db.mu.Unlock()
}

// copyTable deep-copies row and index structure. Immutable parts — name,
// column definitions, the column-name map, vals slices and their views — are
// shared.
func copyTable(t *table) *table {
	nt := &table{
		name:   t.name,
		cols:   t.cols,
		colIdx: t.colIdx,
		pk:     t.pk,
		live:   t.live,
	}
	if len(t.rows) > 0 {
		// Block-allocate the row structs: one allocation instead of one per
		// row, and better locality for scans.
		block := make([]row, len(t.rows))
		nt.rows = make([]*row, len(t.rows))
		for i, r := range t.rows {
			block[i] = row{vals: r.vals, view: r.view, dead: r.dead}
			nt.rows[i] = &block[i]
		}
	}
	if len(t.indexes) > 0 {
		nt.indexes = make([]*index, len(t.indexes))
		for i, ix := range t.indexes {
			nt.indexes[i] = copyIndex(ix)
		}
	}
	return nt
}

// copyIndex deep-copies an index, packing the buckets into one block and
// their positions into a single backing array (full-cap sliced so a
// post-restore append cannot bleed into the neighbouring bucket).
func copyIndex(ix *index) *index {
	n := &index{
		name:   ix.name,
		col:    ix.col,
		unique: ix.unique,
		m:      make(map[key]*bucket, len(ix.sorted)),
		sorted: make([]*bucket, len(ix.sorted)),
	}
	total := 0
	for _, b := range ix.sorted {
		total += len(b.pos)
	}
	backing := make([]int, 0, total)
	block := make([]bucket, len(ix.sorted))
	for i, b := range ix.sorted {
		off := len(backing)
		backing = append(backing, b.pos...)
		block[i] = bucket{k: b.k, pos: backing[off:len(backing):len(backing)]}
		n.sorted[i], n.m[b.k] = &block[i], &block[i]
	}
	return n
}
