package core

import (
	"reflect"
	"testing"

	"wadeploy/internal/container"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

// constView is a push-refreshed query with one key and a constant result.
func constView(name string, by ...string) container.CachedQuerySpec {
	return container.CachedQuerySpec{Name: name, InvalidatedBy: by, View: &container.QueryView{
		Key:   func(container.Commit) string { return name + ":" },
		Query: func(container.Commit) (any, error) { return name, nil },
	}}
}

// TestQueryViewOneApplierPerBean: a bean that several cached queries list is
// registered with each edge's updater façade once, so one commit reaches each
// edge's query applier exactly once — in push mode affected keys × edges
// installs, in pull mode one InvalidatePrefix per prefix.
func TestQueryViewOneApplierPerBean(t *testing.T) {
	t.Run("push", func(t *testing.T) {
		d, rw := wireFixture(t)
		ext := &container.ExtendedDescriptor{
			Replicas: []container.ReplicaSpec{
				{Bean: "ItemRW"},
			},
			CachedQueries: []container.CachedQuerySpec{
				constView("a", "ItemRW"), constView("b", "ItemRW"), constView("c", "ItemRW"),
			},
		}
		w, err := AutoWire(d, ext, WireOptions{}, d.Edges...)
		if err != nil {
			t.Fatal(err)
		}
		w.QueryViews().Seed("a:", "seeded")
		runWarm(d.Env, "writer", func(p *sim.Proc) {
			if _, err := rw.UpdateFields(p, sqldb.Str("i1"), container.State{"qty": sqldb.Int(5)}); err != nil {
				t.Errorf("update: %v", err)
			}
		})
		reg := d.Env.Metrics()
		if got := reg.CounterValue("container_queryview_requeries_total"); got != 3 {
			t.Errorf("re-queries = %d, want 3 (one per affected key, whatever the edge count)", got)
		}
		if got, want := reg.CounterValue("container_querycache_pushed_total"), int64(3*len(d.Edges)); got != want {
			t.Errorf("pushed = %d, want %d (affected keys × edges)", got, want)
		}
		for _, edge := range d.Edges {
			qc := w.Caches[edge.Name()]
			if qc.Size() != 3 {
				t.Errorf("%s: %d entries, want 3", edge.Name(), qc.Size())
			}
			runWarm(d.Env, "reader", func(p *sim.Proc) {
				if v, err := qc.Get(p, "a:"); err != nil || v != "a" {
					t.Errorf("%s a: = %v (%v), want the view's refreshed value", edge.Name(), v, err)
				}
			})
		}
	})

	t.Run("pull", func(t *testing.T) {
		d, rw := wireFixture(t)
		ext := &container.ExtendedDescriptor{
			Replicas: []container.ReplicaSpec{
				{Bean: "ItemRW"},
			},
			// Pet Store's Product: listed by both queries.
			CachedQueries: []container.CachedQuerySpec{
				{Name: "productsByCategory", InvalidatedBy: []string{"ItemRW", "CategoryRW"}},
				{Name: "itemsByProduct", InvalidatedBy: []string{"InventoryRW", "ItemRW"}},
			},
		}
		fetches := make(map[string]int)
		w, err := AutoWire(d, ext, WireOptions{
			QueryFetchFor: func(server *container.Server) container.QueryFetch {
				return func(p *sim.Proc, key string) (any, error) {
					fetches[server.Name()]++
					return "fresh", nil
				}
			},
		}, d.Edges...)
		if err != nil {
			t.Fatal(err)
		}
		if w.QueryViews() != nil {
			t.Fatal("pull-only descriptor built query views")
		}
		keys := []string{"productsByCategory:FISH", "itemsByProduct:P1"}
		for _, edge := range d.Edges {
			for _, key := range keys {
				w.Caches[edge.Name()].Put(key, "cached")
			}
		}
		runWarm(d.Env, "writer", func(p *sim.Proc) {
			if _, err := rw.UpdateFields(p, sqldb.Str("i1"), container.State{"qty": sqldb.Int(5)}); err != nil {
				t.Errorf("update: %v", err)
			}
		})
		// One commit marks both queries' entries stale on every edge.
		for _, edge := range d.Edges {
			runWarm(d.Env, "reader", func(p *sim.Proc) {
				for _, key := range keys {
					if v, err := w.Caches[edge.Name()].Get(p, key); err != nil || v != "fresh" {
						t.Errorf("%s %s = %v (%v), want the refetched value", edge.Name(), key, v, err)
					}
				}
			})
			if fetches[edge.Name()] != len(keys) {
				t.Errorf("%s: %d refetches after one commit, want %d (one per query)", edge.Name(), fetches[edge.Name()], len(keys))
			}
		}
	})
}

// TestQueryViewMixedDescriptor: push and pull queries share one descriptor;
// the commit installs the first and marks the second stale.
func TestQueryViewMixedDescriptor(t *testing.T) {
	d, rw := wireFixture(t)
	fetches := 0
	ext := &container.ExtendedDescriptor{
		Replicas: []container.ReplicaSpec{
			{Bean: "ItemRW"},
		},
		CachedQueries: []container.CachedQuerySpec{
			constView("pushed", "ItemRW"),
			{Name: "pulled", InvalidatedBy: []string{"ItemRW"}},
		},
	}
	w, err := AutoWire(d, ext, WireOptions{
		QueryFetchFor: func(*container.Server) container.QueryFetch {
			return func(_ *sim.Proc, key string) (any, error) {
				fetches++
				return "fetched", nil
			}
		},
	}, d.Edges...)
	if err != nil {
		t.Fatal(err)
	}
	w.QueryViews().Seed("pushed:", "old")
	w.QueryViews().Seed("pulled:", "old")
	if err := w.Preload(); err != nil {
		t.Fatal(err)
	}
	qc := w.Caches[d.Edges[0].Name()]
	runWarm(d.Env, "writer", func(p *sim.Proc) {
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), container.State{"qty": sqldb.Int(5)}); err != nil {
			t.Errorf("update: %v", err)
		}
		if v, err := qc.Get(p, "pushed:"); err != nil || v != "pushed" || fetches != 0 {
			t.Errorf("pushed: = %v (%v) after %d fetches, want the installed view", v, err, fetches)
		}
		if v, err := qc.Get(p, "pulled:"); err != nil || v != "fetched" || fetches != 1 {
			t.Errorf("pulled: = %v (%v) after %d fetches, want one refetch", v, err, fetches)
		}
	})
}

func TestQueryViewNeedsRegisteredBean(t *testing.T) {
	d, _ := wireFixture(t)
	_, err := AutoWire(d, &container.ExtendedDescriptor{
		CachedQueries: []container.CachedQuerySpec{constView("q", "Ghost")},
	}, WireOptions{}, d.Edges...)
	if err == nil {
		t.Fatal("view invalidated by an unregistered bean accepted")
	}
}

// TestResilientPushOnlyCacheKeepsEntries: under resilience a push-fed edge
// store, which has no fetch path, serves its last pushed state however old it
// is, while one that can refetch still refreshes an entry past the replica
// TTL. It holds for query caches and read-only replicas alike.
func TestResilientPushOnlyCacheKeepsEntries(t *testing.T) {
	cols := []string{"id", "qty"}
	refetched := container.RowOf(&cols, []sqldb.Value{sqldb.Str("i1"), sqldb.Int(99)})
	for _, pull := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Resilience = true
		d, err := NewPaperDeployment(sim.NewEnv(11), opts)
		if err != nil {
			t.Fatal(err)
		}
		d, _ = itemFixture(t, d)
		var wopts WireOptions
		if pull {
			wopts.QueryFetchFor = func(*container.Server) container.QueryFetch {
				return func(*sim.Proc, string) (any, error) { return "refetched", nil }
			}
			wopts.FetchFor = func(*container.Server, string) container.FetchFunc {
				return func(*sim.Proc, sqldb.Value) (container.Row, error) { return refetched, nil }
			}
		}
		w, err := AutoWire(d, &container.ExtendedDescriptor{
			Replicas:      []container.ReplicaSpec{{Bean: "ItemRW"}},
			CachedQueries: []container.CachedQuerySpec{constView("a", "ItemRW")},
		}, wopts, d.Edges...)
		if err != nil {
			t.Fatal(err)
		}
		w.QueryViews().Seed("a:", "seeded")
		if err := w.Preload(); err != nil {
			t.Fatal(err)
		}
		want, wantQty := "seeded", int64(10)
		if pull {
			want, wantQty = "refetched", 99
		}
		edge := d.Edges[0].Name()
		runWarm(d.Env, "reader", func(p *sim.Proc) {
			p.Sleep(2 * replicaTTL)
			if v, err := w.Caches[edge].Get(p, "a:"); err != nil || v != want {
				t.Errorf("pull=%v: cache Get after %v = %v (%v), want %v", pull, 2*replicaTTL, v, err, want)
			}
			if row, err := w.Replica(edge, "ItemRW").Get(p, sqldb.Str("i1")); err != nil || row.Get("qty").AsInt() != wantQty {
				t.Errorf("pull=%v: replica Get after %v = %v (%v), want qty %d", pull, 2*replicaTTL, row, err, wantQty)
			}
		})
		d.Env.Close()
	}
}

// TestQueryViewFillsJoiningEdge: an edge wired after the views were seeded
// and refreshed starts from main's current results, view-less queries
// included, and a reset edge takes them again; neither copy counts a push.
func TestQueryViewFillsJoiningEdge(t *testing.T) {
	d, rw := wireFixture(t)
	w, err := AutoWire(d, &container.ExtendedDescriptor{
		Replicas:      []container.ReplicaSpec{{Bean: "ItemRW"}},
		CachedQueries: []container.CachedQuerySpec{constView("a", "ItemRW"), {Name: "static"}},
	}, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.QueryViews().Seed("a:", "seeded")
	w.QueryViews().Seed("static:", "seeded")
	runWarm(d.Env, "writer", func(p *sim.Proc) {
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), container.State{"qty": sqldb.Int(5)}); err != nil {
			t.Errorf("update: %v", err)
		}
	})
	edge := d.Edges[0]
	check := func(when string) {
		t.Helper()
		got := make(map[string]any)
		for k, v := range w.Caches[edge.Name()].All() {
			got[k] = v
		}
		if want := map[string]any{"a:": "a", "static:": "seeded"}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: edge cache %v, want main's %v", when, got, want)
		}
		if pushed := d.Env.Metrics().CounterValue("container_querycache_pushed_total"); pushed != 0 {
			t.Errorf("%s: %d pushes counted", when, pushed)
		}
	}
	if err := w.ExtendTo(edge); err != nil {
		t.Fatal(err)
	}
	check("extended")
	w.Caches[edge.Name()].Put("a:", "stale")
	w.Reset(edge.Name())
	check("reset")
}
