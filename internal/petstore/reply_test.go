package petstore

import (
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/race"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// TestParkedReplyKeepsItsRecord: two processes on an edge ask the edge
// Catalog for two products, the second while the first is on the wire. With
// entity replicas and no query cache every call is a WAN Delegate, which
// fills the caller's record on main and then parks on the reply's transfer,
// so both records are filled before either is read. Both come from the app's
// one free list; each process must read its own product.
func TestParkedReplyKeepsItsRecord(t *testing.T) {
	a := deployApp(t, core.StatefulCaching)
	defer a.d.Env.Close()
	edge := a.d.Edges[0]
	pids := []string{ProductID(0, 0), ProductID(3, 2)}
	type span struct{ start, end time.Duration }
	calls := make([]span, len(pids))
	got := make([]ProductPage, len(pids))
	for i, pid := range pids {
		a.d.Env.Spawn(pid, func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond) // the first is on the wire by now
			stub, err := a.d.FacadeStub(p, edge, BeanCatalog)
			if err != nil {
				t.Error(err)
				return
			}
			calls[i].start = p.Now()
			got[i], err = container.Invoke(p, stub, &a.products, "getItemsOf", sqldb.Str(pid))
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
	for i, pid := range pids {
		if id := got[i].Product.Get("productid").AsString(); id != pid || got[i].Items.Len() != ItemsPerProduct {
			t.Errorf("call for %s read product %q with %d items, want its own with %d", pid, id, got[i].Items.Len(), ItemsPerProduct)
		}
	}
}

// TestCacheFillKeepsNoRecord: a page's miss on an edge's cached catalog
// query fills the cache while the page holds a reply record. The fill passes
// no record, so once the page's record is recycled and reused by the next
// page, the cached result still holds the first product.
func TestCacheFillKeepsNoRecord(t *testing.T) {
	a := deployApp(t, core.QueryCaching)
	defer a.d.Env.Close()
	edge := a.d.Edges[0]
	qc := a.Wiring().Caches[edge.Name()]
	first, second := ProductID(1, 1), ProductID(2, 0)
	runWarm(a.d.Env, "pages", func(p *sim.Proc) {
		stub, err := a.d.FacadeStub(p, edge, BeanCatalog)
		if err != nil {
			t.Error(err)
			return
		}
		for _, pid := range []string{first, second} {
			page, err := container.Invoke(p, stub, &a.products, "getItemsOf", sqldb.Str(pid))
			if err != nil || page.Product.Get("productid").AsString() != pid {
				t.Errorf("page for %s read %v (%v)", pid, page.Product, err)
			}
		}
		if qc.Size() != 2 {
			t.Errorf("edge cache holds %d results, want the two fills", qc.Size())
		}
		v, err := qc.Get(p, QueryItemsByProduct+":"+first)
		cached, ok := v.(*ProductPage)
		if err != nil || !ok {
			t.Errorf("cached %s = %T (%v)", first, v, err)
			return
		}
		if id := cached.Product.Get("productid").AsString(); id != first || cached.Items.Len() != ItemsPerProduct {
			t.Errorf("cached %s now holds product %q with %d items: the fill kept a recycled record", first, id, cached.Items.Len())
		}
	})
}

// TestWarmReplyAllocs: a warm call answered in a recycled record, or read
// from replicas by value, allocates nothing.
func TestWarmReplyAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	item := sqldb.Str(ItemID(1, 2, 3))
	for _, c := range []struct {
		name string
		cfg  core.Policy
		op   func(t *testing.T, a *App) func(p *sim.Proc) error
	}{
		{"getItemVia over replicas", core.StatefulCaching, func(t *testing.T, a *App) func(p *sim.Proc) error {
			s := siteOf(t, a, a.d.Edges[0])
			return func(p *sim.Proc) error {
				_, err := a.getItemVia(p, s, item)
				return err
			}
		}},
		{"FetchFrom of an unowned key", partitioned(core.StatefulCaching, 2), func(t *testing.T, a *App) func(p *sim.Proc) error {
			ro := a.Wiring().Replica(simnet.NodeEdge1, BeanItem)
			key := item
			for i := 0; ro.Owns(key); i++ {
				key = sqldb.Str(ItemID(i%NumCategories, i%ProductsPerCategory, i%ItemsPerProduct))
			}
			return func(p *sim.Proc) error {
				_, err := ro.Get(p, key)
				return err
			}
		}},
		{"main getItemsOf through a local stub", core.Centralized, func(t *testing.T, a *App) func(p *sim.Proc) error {
			pid := sqldb.Str(ProductID(1, 1))
			return func(p *sim.Proc) error {
				stub, err := a.d.Main.StubFor(p, simnet.NodeMain, BeanCatalog)
				if err == nil {
					_, err = container.Invoke(p, stub, &a.products, "getItemsOf", pid)
				}
				return err
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := deployApp(t, c.cfg)
			defer a.d.Env.Close()
			op := c.op(t, a)
			allocs := -1.0 // until measured
			runWarm(a.d.Env, "warm", func(p *sim.Proc) {
				for range 4 {
					if err := op(p); err != nil {
						t.Error(err)
						return
					}
				}
				allocs = testing.AllocsPerRun(100, func() {
					if err := op(p); err != nil {
						t.Error(err)
					}
				})
			})
			if allocs != 0 {
				t.Errorf("allocates %.2f objects, want 0", allocs)
			}
		})
	}
}
