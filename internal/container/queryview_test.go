package container

import (
	"errors"
	"reflect"
	"testing"

	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

// viewFixture hooks two push-refreshed queries onto the inventory bean:
// "byQty:<qty>" (the item ids holding that quantity, always re-executed) and
// "stock:" (every row, maintained by row replacement on an update).
type viewFixture struct {
	*fixture
	rw       *RWEntity
	views    *QueryViews
	queries  map[string]int // Query executions per key
	maintain int            // Maintain calls
}

func newViewFixture(t *testing.T) *viewFixture {
	t.Helper()
	f := &viewFixture{fixture: newFixture(t), queries: make(map[string]int)}
	rows := func(key, sql string, args ...sqldb.Value) (any, error) {
		f.queries[key]++
		return rowsOf(f.db, sql, args...)
	}
	byQty := func(c Commit) string { return "byQty:" + c.State.Get("qty").AsString() }
	f.views = NewQueryViews(f.env.Metrics(), []CachedQuerySpec{
		{Name: "static"},
		{Name: "byQty", InvalidatedBy: []string{"InvRW"}, View: &QueryView{
			Key: byQty,
			Query: func(c Commit) (any, error) {
				return rows(byQty(c), `SELECT item_id FROM inventory WHERE qty = ? ORDER BY item_id`, c.State.Get("qty"))
			},
		}},
		{Name: "stock", InvalidatedBy: []string{"InvRW"}, View: &QueryView{
			Key: func(Commit) string { return "stock:" },
			Query: func(Commit) (any, error) {
				return rows("stock:", `SELECT * FROM inventory ORDER BY item_id`)
			},
			Maintain: func(prev any, c Commit) (any, bool) {
				f.maintain++
				if c.Prev.IsZero() {
					return nil, false // an insert adds a row
				}
				old := prev.([]Row)
				next := make([]Row, len(old))
				copy(next, old)
				for i, row := range next {
					if row.Get("item_id") == c.PK {
						next[i] = c.State
						return next, true
					}
				}
				return nil, false
			},
		}},
	})
	var err error
	if f.rw, err = DeployRWEntity(f.main, "InvRW", "inventory", "item_id"); err != nil {
		t.Fatal(err)
	}
	f.rw.SetQueryViews(f.views)
	return f
}

// checkFresh asserts the view ≡ query invariant for key (with Error: it also
// runs on process goroutines).
func (f *viewFixture) checkFresh(t *testing.T, key, sql string, args ...sqldb.Value) {
	t.Helper()
	got, ok := f.views.Result(key)
	want, err := rowsOf(f.db, sql, args...)
	if !ok || err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%s: view %v (present %t), fresh query %v (%v)", key, got, ok, want, err)
	}
}

func TestQueryViewsNoneDeclared(t *testing.T) {
	f := newFixture(t)
	before := len(f.env.Metrics().Snapshot().Counters)
	if v := NewQueryViews(f.env.Metrics(), []CachedQuerySpec{{Name: "q", InvalidatedBy: []string{"B"}}}); v != nil {
		t.Fatal("pull-only descriptor built views")
	}
	if after := len(f.env.Metrics().Snapshot().Counters); after != before {
		t.Fatalf("pull-only descriptor registered %d counters", after-before)
	}
}

func TestQueryViewRefreshedOncePerCommit(t *testing.T) {
	f := newViewFixture(t)
	const stockSQL = `SELECT * FROM inventory ORDER BY item_id`
	const qtySQL = `SELECT item_id FROM inventory WHERE qty = ? ORDER BY item_id`
	reg := f.env.Metrics()
	f.views.Seed("stock:", mustRows(t, f.db, stockSQL))
	f.views.Seed("static:", "never a view")
	if f.views.Len() != 1 {
		t.Fatalf("seeded %d views, want 1 (static has no view)", f.views.Len())
	}
	f.run(t, func(p *sim.Proc) {
		// Update: byQty has no maintainer, so the key the item entered and
		// the key it left are re-executed; stock is maintained — each
		// exactly once.
		if _, err := f.rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(7)}); err != nil {
			t.Errorf("update: %v", err)
			return
		}
		if f.queries["byQty:7"] != 1 || f.queries["byQty:10"] != 1 || f.queries["stock:"] != 0 || f.maintain != 1 {
			t.Errorf("update ran queries %v, %d maintainers", f.queries, f.maintain)
		}
		f.checkFresh(t, "byQty:7", qtySQL, sqldb.Int(7))
		f.checkFresh(t, "byQty:10", qtySQL, sqldb.Int(10))
		f.checkFresh(t, "stock:", stockSQL)

		// Insert: the maintainer declines, so stock falls back to one query.
		if err := f.rw.Insert(p, State{"item_id": sqldb.Str("i3"), "qty": sqldb.Int(7)}); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		if f.queries["byQty:7"] != 2 || f.queries["stock:"] != 1 || f.maintain != 2 {
			t.Errorf("insert ran queries %v, %d maintainers", f.queries, f.maintain)
		}
		f.checkFresh(t, "byQty:7", qtySQL, sqldb.Int(7))
		f.checkFresh(t, "stock:", stockSQL)

		// Delete: keyed by the state the entity had, never maintained.
		if err := f.rw.Delete(p, sqldb.Str("i1")); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		if f.queries["byQty:7"] != 3 || f.queries["stock:"] != 2 || f.maintain != 2 {
			t.Errorf("delete ran queries %v, %d maintainers", f.queries, f.maintain)
		}
		f.checkFresh(t, "byQty:7", qtySQL, sqldb.Int(7))
		f.checkFresh(t, "stock:", stockSQL)
	})
	// The bean has no propagator: nothing it commits reaches an edge, so no
	// keys were put on record for one.
	qc := NewQueryCache(f.edge, "qc", nil)
	(&QueryInvalidation{Cache: qc, Views: f.views}).ApplyUpdate(Update{Bean: "InvRW", PK: sqldb.Str("i3")})
	if qc.Pushed() != 0 {
		t.Errorf("an unshipped bean's entity installed %d keys", qc.Pushed())
	}
	if got := reg.CounterValue("container_queryview_maintained_total"); got != 1 {
		t.Errorf("maintained = %d, want 1", got)
	}
	if got := reg.CounterValue("container_queryview_requeries_total"); got != 6 {
		t.Errorf("requeries = %d, want 6", got)
	}
}

func rowsOf(db *sqldb.DB, sql string, args ...sqldb.Value) ([]Row, error) {
	res, err := db.Exec(sql, args...)
	if err != nil {
		return nil, err
	}
	return RowsOf(res).Slice(), nil
}

func mustRows(t *testing.T, db *sqldb.DB, sql string, args ...sqldb.Value) []Row {
	t.Helper()
	out, err := rowsOf(db, sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestQueryViewInstallWhateverRidesTheWire: the edge finds an entity's keys
// from the commit-time record, so a full-state push, a delta and a coalesced
// batch all install the same current values, by reference.
func TestQueryViewInstallWhateverRidesTheWire(t *testing.T) {
	f := newViewFixture(t)
	f.rw.SetDeltaPush(true)
	buf := NewUpdateBuffer()
	f.rw.AddPropagator(buf)
	f.run(t, func(p *sim.Proc) {
		for _, qty := range []int64{7, 8} {
			if _, err := f.rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(qty)}); err != nil {
				t.Errorf("update: %v", err)
			}
		}
	})
	qc := NewQueryCache(f.edge, "qc", nil)
	qi := &QueryInvalidation{Cache: qc, Views: f.views}
	batch := CoalesceUpdates(buf.Drain())
	if len(batch) != 1 || !batch[0].Delta {
		t.Fatalf("batch = %+v, want one coalesced delta", batch)
	}
	qi.ApplyUpdate(batch[0])
	// Every quantity the item passed through, and the stock list.
	keys := []string{"byQty:10", "byQty:7", "byQty:8", "stock:"}
	if qc.Size() != len(keys) || qc.Pushed() != int64(len(keys)) {
		t.Fatalf("edge cache holds %d entries after %d pushes, want %d of each", qc.Size(), qc.Pushed(), len(keys))
	}
	f.checkFresh(t, "byQty:10", `SELECT item_id FROM inventory WHERE qty = 10`)
	f.checkFresh(t, "byQty:7", `SELECT item_id FROM inventory WHERE qty = 7`)
	f.checkFresh(t, "byQty:8", `SELECT item_id FROM inventory WHERE qty = 8`)
	f.run(t, func(p *sim.Proc) {
		for _, key := range keys {
			got, err := qc.Get(p, key)
			want, _ := f.views.Result(key)
			if err != nil || reflect.ValueOf(got).Pointer() != reflect.ValueOf(want).Pointer() {
				t.Errorf("%s: edge holds %v (%v), want the view's value %v", key, got, err, want)
			}
		}
	})
	// An update of an entity that never committed installs nothing.
	qi.ApplyUpdate(Update{Bean: "InvRW", PK: sqldb.Str("i2"), State: State{"qty": sqldb.Int(1)}.row(), Delta: true})
	if qc.Pushed() != int64(len(keys)) {
		t.Fatalf("pushed = %d after an unknown entity's update, want %d", qc.Pushed(), len(keys))
	}
}

func TestQueryViewQueryErrorFailsTheCommit(t *testing.T) {
	f := newFixture(t)
	boom := errors.New("boom")
	views := NewQueryViews(f.env.Metrics(), []CachedQuerySpec{{
		Name: "q", InvalidatedBy: []string{"InvRW"},
		View: &QueryView{
			Key:   func(Commit) string { return "q:" },
			Query: func(Commit) (any, error) { return nil, boom },
		},
	}})
	rw, err := DeployRWEntity(f.main, "InvRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	rw.SetQueryViews(views)
	f.run(t, func(p *sim.Proc) {
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(1)}); !errors.Is(err, boom) {
			t.Errorf("update err = %v, want the view's query error", err)
		}
	})
}

// TestQueryViewMaintainedCommitAllocs: the commit hook itself adds nothing to
// a maintained refresh once the entity's keys are on record.
func TestQueryViewMaintainedCommitAllocs(t *testing.T) {
	f := newFixture(t)
	state := State{"item_id": sqldb.Str("i1")}.row()
	var result any = []Row{state} // boxed once: the maintainer's own cost is not the hook's
	views := NewQueryViews(f.env.Metrics(), []CachedQuerySpec{{
		Name: "q", InvalidatedBy: []string{"InvRW"},
		View: &QueryView{
			Key:      func(Commit) string { return "q:" },
			Query:    func(Commit) (any, error) { return result, nil },
			Maintain: func(any, Commit) (any, bool) { return result, true },
		},
	}})
	c := Commit{Bean: "InvRW", PK: sqldb.Str("i1"), State: state, Prev: state}
	if err := views.committed(c, true); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := views.committed(c, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("maintained commit allocates %.0f times in the hook, want 0", allocs)
	}
}

func TestQueryViewDescriptorValidation(t *testing.T) {
	key := func(Commit) string { return "" }
	query := func(Commit) (any, error) { return nil, nil }
	for name, view := range map[string]*QueryView{
		"no key":   {Query: query},
		"no query": {Key: key},
	} {
		d := &ExtendedDescriptor{CachedQueries: []CachedQuerySpec{{Name: "q", View: view}}}
		if err := d.Validate(); !errors.Is(err, ErrBadDescriptor) {
			t.Errorf("%s: err = %v, want ErrBadDescriptor", name, err)
		}
	}
	ok := &ExtendedDescriptor{CachedQueries: []CachedQuerySpec{{Name: "q", View: &QueryView{Key: key, Query: query}}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("complete view rejected: %v", err)
	}
}
