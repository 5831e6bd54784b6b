package container

import (
	"slices"
	"testing"

	"wadeploy/internal/race"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

func TestRowGetMissingColumnIsNull(t *testing.T) {
	row := State{"item_id": sqldb.Str("i1"), "qty": sqldb.Int(10)}.row()
	if got := row.Get("qty"); got != sqldb.Int(10) {
		t.Fatalf("qty = %v, want 10", got)
	}
	if got := row.Get("price"); !got.IsNull() {
		t.Fatalf("missing column = %v, want NULL", got)
	}
	var zero Row
	if !zero.IsZero() || zero.Len() != 0 || !zero.Get("qty").IsNull() {
		t.Fatalf("zero row: IsZero %v, Len %d, qty %v", zero.IsZero(), zero.Len(), zero.Get("qty"))
	}
	// A commit that wrote no value to a column a touch test names reads
	// NULL on both sides, so it does not count as touching it.
	c := Commit{State: row, Prev: row}
	if c.Touches("price") {
		t.Fatal("an unwritten column counts as touched")
	}
}

func TestRowWithLeavesInputsUntouched(t *testing.T) {
	cols := []string{"item_id", "qty"}
	base := RowOf(&cols, []sqldb.Value{sqldb.Str("i1"), sqldb.Int(10)})
	delta := RowOf(&[]string{"qty", "note"}, []sqldb.Value{sqldb.Int(3), sqldb.Str("x")})
	baseVals, deltaCols, deltaVals := slices.Clone(base.vals), slices.Clone(delta.columns()), slices.Clone(delta.vals)

	got := base.With(delta)
	if want := []string{"item_id", "qty", "note"}; !slices.Equal(got.columns(), want) {
		t.Fatalf("columns %v, want %v", got.columns(), want)
	}
	if got.Get("item_id") != sqldb.Str("i1") || got.Get("qty") != sqldb.Int(3) || got.Get("note") != sqldb.Str("x") {
		t.Fatalf("merged row %v", got.vals)
	}
	if !slices.Equal(base.columns(), []string{"item_id", "qty"}) || !slices.Equal(base.vals, baseVals) ||
		!slices.Equal(delta.columns(), deltaCols) || !slices.Equal(delta.vals, deltaVals) {
		t.Fatalf("With changed an input: base %v %v, delta %v %v", base.columns(), base.vals, delta.columns(), delta.vals)
	}

	// A delta over existing columns shares the column list and copies only
	// the values.
	same := base.With(RowOf(&[]string{"qty"}, []sqldb.Value{sqldb.Int(4)}))
	if same.cols != base.cols || &same.vals[0] == &base.vals[0] || base.Get("qty") != sqldb.Int(10) {
		t.Fatal("a same-column With must share the columns and copy the values")
	}
}

// A replica hit returns the stored row itself: no copy, no allocation.
func TestROEntityHitAllocs(t *testing.T) {
	f := newFixture(t)
	ro, err := DeployROEntity(f.edge, "InvRO", "InvRW", nil)
	if err != nil {
		t.Fatal(err)
	}
	stored := State{"item_id": sqldb.Str("i1"), "qty": sqldb.Int(10)}.row()
	pk := sqldb.Str("i1")
	ro.Seed(pk, stored)
	var allocs float64
	f.run(t, func(p *sim.Proc) {
		got, err := ro.Get(p, pk)
		if err != nil || &got.vals[0] != &stored.vals[0] {
			t.Errorf("hit = %v (%v), want the stored row itself", got.vals, err)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := ro.Get(p, pk); err != nil {
				t.Error(err)
			}
		})
	})
	if allocs != 0 {
		t.Fatalf("a replica hit allocates %.1f times, want 0", allocs)
	}
}

// Load hands back the SELECT's own row: it allocates what the statement does,
// which is nothing — the Result is the caller's value, its one row the stored
// row's view, and the Row's column names the cached plan's. RowsOf views a
// many-row result without a copy.
func TestRWEntityLoadAllocsOnlyItsSelect(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	f := newFixture(t)
	rw, err := DeployRWEntity(f.main, "InvRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	pk := sqldb.Str("i1")
	var load, sel, rows float64
	f.run(t, func(p *sim.Proc) {
		load = testing.AllocsPerRun(100, func() {
			if row, err := rw.Load(p, pk); err != nil || row.Get("qty") != sqldb.Int(10) {
				t.Errorf("load = %v (%v)", row.vals, err)
			}
		})
		sel = testing.AllocsPerRun(100, func() {
			if _, err := f.main.SQL(p, rw.loadSQL, pk); err != nil {
				t.Error(err)
			}
		})
		all, err := f.main.SQL(p, rw.snapshotSQL)
		if err != nil || all.Len() != 2 {
			t.Errorf("snapshot read: %d rows (%v)", all.Len(), err)
			return
		}
		rows = testing.AllocsPerRun(100, func() {
			if v := RowsOf(all); v.Len() != 2 || v.At(1).Get("qty") != sqldb.Int(5) {
				t.Errorf("rows view: %d rows", v.Len())
			}
		})
	})
	if load != 0 || sel != 0 || rows != 0 {
		t.Fatalf("Load allocates %.1f times, its SELECT %.1f, a rows view %.1f; want 0, 0 and 0", load, sel, rows)
	}
}

// One image seeds every edge's replica by reference, so nothing that reaches
// one edge may write through it: a delta applied at the first edge, and a
// coalesced window folding deltas over a full-state update of the same row,
// leave the second edge's copy — the very same row — as it was.
func TestSharedImageSurvivesDeltasElsewhere(t *testing.T) {
	f := newFixture(t)
	rw, err := DeployRWEntity(f.main, "InvRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	image, err := rw.Image()
	if err != nil {
		t.Fatal(err)
	}
	first, err := DeployROEntity(f.edge, "InvRO", "InvRW", nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := DeployROEntity(f.main, "InvRO", "InvRW", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range image {
		first.Seed(u.PK, u.State)
		second.Seed(u.PK, u.State)
	}
	i1 := image[0]
	want := slices.Clone(i1.State.vals)
	delta := func(qty int64) Update {
		return Update{Bean: "InvRW", PK: i1.PK, Delta: true, State: State{"qty": sqldb.Int(qty)}.row()}
	}

	first.ApplyUpdate(delta(7))
	window := CoalesceUpdates([]Update{i1, delta(8), delta(9)})
	first.ApplyUpdate(window[0])

	if got, _ := first.Peek(i1.PK); got.Get("qty") != sqldb.Int(9) || window[0].Delta {
		t.Fatalf("first edge qty = %v (window delta %v), want the full row with 9", got.Get("qty"), window[0].Delta)
	}
	got, _ := second.Peek(i1.PK)
	if &got.vals[0] != &i1.State.vals[0] || !slices.Equal(got.vals, want) || !slices.Equal(i1.State.vals, want) {
		t.Fatalf("second edge holds %v, image %v; want both the untouched image %v", got.vals, i1.State.vals, want)
	}
}
