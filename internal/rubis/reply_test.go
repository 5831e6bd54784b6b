package rubis

import (
	"reflect"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/race"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

// TestParkedReplyKeepsItsRecord: two processes on an edge read two items' bid
// histories, the second while the first is on the wire. With entity replicas
// and no query cache the edge SB_ViewBidHistory is a WAN Delegate, which
// fills the caller's record on main and then parks on the reply's transfer,
// so both records are filled before either is read. Both come from the app's
// one free list; each process must read its own item's history.
func TestParkedReplyKeepsItsRecord(t *testing.T) {
	a := deployApp(t, core.StatefulCaching)
	defer a.d.Env.Close()
	edge := a.d.Edges[0]
	items := []int64{3, 7}
	type span struct{ start, end time.Duration }
	calls := make([]span, len(items))
	got := make([]container.Rows, len(items))
	for i, item := range items {
		a.d.Env.Spawn("history", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond) // the first is on the wire by now
			stub, err := a.d.FacadeStub(p, edge, SBViewBidHistory)
			if err != nil {
				t.Error(err)
				return
			}
			calls[i].start = p.Now()
			got[i], err = container.Invoke(p, stub, &a.rows, "get", sqldb.Int(item))
			calls[i].end = p.Now()
			if err != nil {
				t.Error(err)
			}
		})
	}
	a.d.Env.RunAll()
	if calls[1].start >= calls[0].end {
		t.Fatalf("calls %v do not overlap", calls)
	}
	for i, item := range items {
		if want := freshRows(t, a, qBidHistory(item)); got[i].Len() != SeedBidsPerItem || !reflect.DeepEqual(got[i], *want) {
			t.Errorf("item %d read bid history %v, want its own %v", item, got[i], *want)
		}
	}
}

// TestEdgeViewItemAllocs: the edge SB_ViewItem.get of a replicated item,
// answered in a recycled record through a local stub, allocates nothing.
func TestEdgeViewItemAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	a := deployApp(t, core.AsyncUpdates)
	defer a.d.Env.Close()
	edge := a.d.Edges[0]
	allocs := -1.0 // until measured
	runWarm(a.d.Env, "warm", func(p *sim.Proc) {
		stub, err := a.d.FacadeStub(p, edge, SBViewItem)
		if err != nil {
			t.Error(err)
			return
		}
		get := func() {
			row, err := container.Invoke(p, stub, &a.row, "get", sqldb.Int(11))
			if err != nil || row.Get("id").AsInt() != 11 {
				t.Errorf("get = %v (%v)", row, err)
			}
		}
		get()
		allocs = testing.AllocsPerRun(100, get)
	})
	if allocs != 0 {
		t.Errorf("edge SB_ViewItem.get allocates %.2f objects, want 0", allocs)
	}
}
