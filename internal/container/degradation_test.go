package container

import (
	"fmt"
	"testing"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

// edgeCache is one edge cache reduced to its expiry settings and a read of
// one key, so a test holds both stores to the same read-through behaviour.
type edgeCache struct {
	setTTL        func(time.Duration)
	setServeStale func(time.Duration)
	read          func(p *sim.Proc) (int64, error)
}

// deployCache deploys one edge cache on f's edge over fetch, which answers
// the cached key's current value.
type deployCache func(t *testing.T, f *fixture, fetch func(p *sim.Proc) (int64, error)) edgeCache

func deployReplica(t *testing.T, f *fixture, fetch func(*sim.Proc) (int64, error)) edgeCache {
	ro, err := DeployROEntity(f.edge, "InvRO", "Inventory", func(p *sim.Proc, pk sqldb.Value) (Row, error) {
		v, err := fetch(p)
		if err != nil {
			return Row{}, err
		}
		return State{"item_id": pk, "qty": sqldb.Int(v)}.row(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return edgeCache{ro.SetTTL, ro.SetServeStale, func(p *sim.Proc) (int64, error) {
		row, err := ro.Get(p, sqldb.Str("i1"))
		return row.Get("qty").AsInt(), err
	}}
}

func deployQueryCache(t *testing.T, f *fixture, fetch func(*sim.Proc) (int64, error)) edgeCache {
	qc := NewQueryCache(f.edge, "itemsOf", func(p *sim.Proc, _ string) (any, error) { return fetch(p) })
	return edgeCache{qc.SetTTL, qc.SetServeStale, func(p *sim.Proc) (int64, error) {
		v, err := qc.Get(p, "itemsOf:p1")
		n, _ := v.(int64)
		return n, err
	}}
}

var edgeCaches = []struct {
	name   string
	deploy deployCache
}{{"replica", deployReplica}, {"query cache", deployQueryCache}}

func TestROEntityServesStaleDuringPartition(t *testing.T) {
	testServesStaleDuringPartition(t, deployReplica)
}

func TestQueryCacheServesStaleDuringPartition(t *testing.T) {
	testServesStaleDuringPartition(t, deployQueryCache)
}

// testServesStaleDuringPartition: an edge cache with a TTL and a serve-stale
// bound keeps answering reads from its (expired) local copy while the WAN
// path to the fetch source is down, and errors once the copy outlives the
// bound. Both edge caches run these same steps, since they share one store.
func testServesStaleDuringPartition(t *testing.T, deploy deployCache) {
	f := newFixture(t)
	if _, err := DeployStateless(f.main, "InvFacade", map[string]Method{
		"get": func(*sim.Proc, *Invocation) (any, error) { return int64(10), nil },
	}); err != nil {
		t.Fatal(err)
	}
	cache := deploy(t, f, func(p *sim.Proc) (int64, error) {
		stub, err := f.edge.StubFor(p, "main", "InvFacade")
		if err != nil {
			return 0, err
		}
		v, err := stub.Invoke(p, "get")
		if err != nil {
			return 0, err
		}
		return v.(int64), nil
	})
	cache.setTTL(10 * time.Second)
	cache.setServeStale(time.Minute)
	f.run(t, func(p *sim.Proc) {
		if _, err := cache.read(p); err != nil {
			t.Errorf("cold fetch: %v", err)
			return
		}
		if err := f.net.SetLinkState("main", "edge", false); err != nil {
			t.Error(err)
			return
		}
		// Past the TTL the refresh fails, but within the bound the
		// stale copy is served.
		p.Sleep(20 * time.Second)
		if v, err := cache.read(p); err != nil || v != 10 {
			t.Errorf("stale read during partition = %d (%v), want 10", v, err)
		}
		if stale := f.count("container_stale_serves_total"); stale != 1 {
			t.Errorf("stale serves = %d, want 1", stale)
		}
		// Past the serve-stale bound, reads fail.
		p.Sleep(2 * time.Minute)
		if _, err := cache.read(p); err == nil {
			t.Error("read beyond the stale bound unexpectedly succeeded")
		}
	})
}

// TestEdgeCachesExpireAfterTTL pins the one expiry rule: an entry expires
// once it is older than the TTL, so a read exactly one TTL after the load is
// a hit and a read 1 ns later refetches.
func TestEdgeCachesExpireAfterTTL(t *testing.T) {
	const ttl = 10 * time.Second
	for _, c := range edgeCaches {
		for _, tc := range []struct {
			after   time.Duration
			fetches int64
		}{{ttl, 1}, {ttl + time.Nanosecond, 2}} {
			t.Run(fmt.Sprintf("%s/%v", c.name, tc.after), func(t *testing.T) {
				f := newFixture(t)
				var fetches int64
				cache := c.deploy(t, f, func(*sim.Proc) (int64, error) {
					fetches++
					return fetches, nil
				})
				cache.setTTL(ttl)
				f.run(t, func(p *sim.Proc) {
					if _, err := cache.read(p); err != nil {
						t.Errorf("cold fetch: %v", err)
						return
					}
					p.Sleep(tc.after)
					if v, err := cache.read(p); err != nil || v != tc.fetches {
						t.Errorf("read %v after the load = %d (%v), want %d", tc.after, v, err, tc.fetches)
					}
				})
			})
		}
	}
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
