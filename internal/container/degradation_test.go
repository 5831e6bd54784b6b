package container

import (
	"testing"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

// TestROEntityServesStaleDuringPartition: a replica with a TTL and a
// serve-stale bound keeps answering reads from its (expired) local copy
// while the WAN path to the fetch source is down, and errors once the copy
// outlives the bound.
func TestROEntityServesStaleDuringPartition(t *testing.T) {
	f := newFixture(t)
	fetch := func(p *sim.Proc, pk sqldb.Value) (Row, error) {
		stub, err := f.edge.StubFor(p, "main", "InvFacade")
		if err != nil {
			return Row{}, err
		}
		v, err := stub.Invoke(p, "get", pk)
		if err != nil {
			return Row{}, err
		}
		return v.(Row), nil
	}
	if _, err := DeployStateless(f.main, "InvFacade", map[string]Method{
		"get": func(p *sim.Proc, inv *Invocation) (any, error) {
			return State{"item_id": sqldb.Str("i1"), "qty": sqldb.Int(10)}.row(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	ro, err := DeployROEntity(f.edge, "InvRO", "Inventory", fetch)
	if err != nil {
		t.Fatal(err)
	}
	ro.SetTTL(10 * time.Second)
	ro.SetServeStale(time.Minute)
	f.run(t, func(p *sim.Proc) {
		pk := sqldb.Str("i1")
		if _, err := ro.Get(p, pk); err != nil {
			t.Errorf("cold fetch: %v", err)
			return
		}
		if err := f.net.SetLinkState("main", "edge", false); err != nil {
			t.Error(err)
			return
		}
		// Past the TTL the refresh fails, but within the bound the stale
		// copy is served.
		p.Sleep(20 * time.Second)
		st, err := ro.Get(p, pk)
		if err != nil {
			t.Errorf("stale read during partition: %v", err)
		} else if st.Get("qty").AsInt() != 10 {
			t.Errorf("stale read qty = %v", st.Get("qty"))
		}
		if stale := f.count("container_stale_serves_total"); stale != 1 {
			t.Errorf("stale serves = %d, want 1", stale)
		}
		// Past the serve-stale bound, reads fail.
		p.Sleep(2 * time.Minute)
		if _, err := ro.Get(p, pk); err == nil {
			t.Error("read beyond the stale bound unexpectedly succeeded")
		}
	})
	if got := f.env.Metrics().CounterValue("container_stale_serves_total"); got != 1 {
		t.Fatalf("container_stale_serves_total = %d, want 1", got)
	}
}

// TestQueryCacheServesStaleDuringPartition mirrors the replica test for
// cached aggregate queries.
func TestQueryCacheServesStaleDuringPartition(t *testing.T) {
	f := newFixture(t)
	fetch := func(p *sim.Proc, key string) (any, error) {
		stub, err := f.edge.StubFor(p, "main", "QueryFacade")
		if err != nil {
			return nil, err
		}
		return stub.Invoke(p, "run", sqldb.Str(key))
	}
	if _, err := DeployStateless(f.main, "QueryFacade", map[string]Method{
		"run": func(p *sim.Proc, inv *Invocation) (any, error) {
			return []string{"i1", "i2"}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	qc := NewQueryCache(f.edge, "itemsOf", fetch)
	qc.SetTTL(10 * time.Second)
	qc.SetServeStale(time.Minute)
	f.run(t, func(p *sim.Proc) {
		if _, err := qc.Get(p, "itemsOf:p1"); err != nil {
			t.Errorf("cold fetch: %v", err)
			return
		}
		if err := f.net.SetLinkState("main", "edge", false); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(20 * time.Second)
		v, err := qc.Get(p, "itemsOf:p1")
		if err != nil {
			t.Errorf("stale read during partition: %v", err)
		} else if rows := v.([]string); len(rows) != 2 {
			t.Errorf("stale read rows = %v", rows)
		}
		if stale := f.count("container_stale_serves_total"); stale != 1 {
			t.Errorf("stale serves = %d, want 1", stale)
		}
		p.Sleep(2 * time.Minute)
		if _, err := qc.Get(p, "itemsOf:p1"); err == nil {
			t.Error("read beyond the stale bound unexpectedly succeeded")
		}
	})
}

// TestNoStaleServeMetricsWithoutBound pins the lazy-registration contract:
// deployments that never call SetServeStale export no stale-serve metrics.
func TestNoStaleServeMetricsWithoutBound(t *testing.T) {
	f := newFixture(t)
	if _, err := DeployROEntity(f.edge, "InvRO", "Inventory", nil); err != nil {
		t.Fatal(err)
	}
	NewQueryCache(f.edge, "itemsOf", nil)
	for _, c := range f.env.Metrics().Snapshot().Counters {
		if c.Name == "container_stale_serves_total" {
			t.Fatal("stale-serve metric registered without a serve-stale bound")
		}
	}
}
