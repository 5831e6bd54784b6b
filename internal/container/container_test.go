package container

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"wadeploy/internal/jms"
	"wadeploy/internal/race"
	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

// fixture assembles a main+edge deployment over a 100ms-one-way WAN with the
// database co-located with main.
type fixture struct {
	env  *sim.Env
	net  *simnet.Network
	db   *sqldb.DB
	rt   *rmi.Runtime
	jms  *jms.Provider
	main *Server
	edge *Server
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	env := sim.NewEnv(7)
	net := simnet.New(env)
	for _, id := range []string{"main", "edge"} {
		if _, err := net.AddNode(id, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink("main", "edge", 100*time.Millisecond, 1e12); err != nil {
		t.Fatal(err)
	}
	db := sqldb.New()
	if _, err := db.Exec(`CREATE TABLE inventory (item_id TEXT PRIMARY KEY, qty INT NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO inventory VALUES ('i1', 10), ('i2', 5)`); err != nil {
		t.Fatal(err)
	}
	rt := rmi.NewRuntime(net, rmi.DefaultOptions)
	provider, err := jms.NewProvider(net, "main", false)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *Server {
		s, err := NewServer(Config{
			Name:   name,
			DBNode: "main",
			DB:     db,
			Net:    net,
			RMI:    rt,
			JMS:    provider,
			Web:    web.DefaultOptions,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return &fixture{env: env, net: net, db: db, rt: rt, jms: provider, main: mk("main"), edge: mk("edge")}
}

// count reads a counter off the fixture's registry, which every server and
// bean of the fixture shares.
func (f *fixture) count(name string) int64 { return f.env.Metrics().CounterValue(name) }

// run spawns fn as a process and drives the simulation to completion.
func (f *fixture) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	f.env.Spawn("test", fn)
	f.env.RunAll()
}

func TestStatelessBeanLocalAndRemote(t *testing.T) {
	f := newFixture(t)
	if _, err := DeployStateless(f.main, "Catalog", map[string]Method{
		"getItem": func(p *sim.Proc, inv *Invocation) (any, error) {
			return "item:" + inv.Args[0].S, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		// Local call from main.
		stub, err := f.main.StubFor(p, "main", "Catalog")
		if err != nil {
			t.Errorf("stub: %v", err)
			return
		}
		start := p.Now()
		v, err := stub.Invoke(p, "getItem", sqldb.Str("i1"))
		if err != nil || v != "item:i1" {
			t.Errorf("local invoke: %v, %v", v, err)
		}
		localCost := p.Now() - start
		if localCost >= 50*time.Millisecond {
			t.Errorf("local call cost %v, want well under a WAN RTT", localCost)
		}
		// Remote call from edge crosses the WAN.
		estub, err := f.edge.StubFor(p, "main", "Catalog")
		if err != nil {
			t.Errorf("stub: %v", err)
			return
		}
		start = p.Now()
		if _, err := estub.Invoke(p, "getItem", sqldb.Str("i1")); err != nil {
			t.Errorf("remote invoke: %v", err)
		}
		remoteCost := p.Now() - start
		if remoteCost < 200*time.Millisecond {
			t.Errorf("remote call cost %v, want >= RTT", remoteCost)
		}
	})
}

func TestStatelessUnknownMethod(t *testing.T) {
	f := newFixture(t)
	if _, err := DeployStateless(f.main, "Catalog", map[string]Method{}); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		stub, _ := f.main.StubFor(p, "main", "Catalog")
		if _, err := stub.Invoke(p, "nope"); !errors.Is(err, ErrNoSuchMethod) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestStatefulBeanKeepsPerSessionState(t *testing.T) {
	f := newFixture(t)
	cart, err := DeployStateful(f.edge, "ShoppingCart", map[string]Method{
		"add": func(p *sim.Proc, inv *Invocation) (any, error) {
			n := inv.State["count"].AsInt()
			inv.State["count"] = sqldb.Int(n + 1)
			return n + 1, nil
		},
		"count": func(p *sim.Proc, inv *Invocation) (any, error) {
			return inv.State["count"].AsInt(), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		stub, _ := f.edge.StubFor(p, "edge", "ShoppingCart")
		for i := 0; i < 3; i++ {
			if _, err := stub.Invoke(p, "add", sqldb.Str("sess-A")); err != nil {
				t.Errorf("add: %v", err)
			}
		}
		if _, err := stub.Invoke(p, "add", sqldb.Str("sess-B")); err != nil {
			t.Errorf("add: %v", err)
		}
		va, _ := stub.Invoke(p, "count", sqldb.Str("sess-A"))
		vb, _ := stub.Invoke(p, "count", sqldb.Str("sess-B"))
		if va.(int64) != 3 || vb.(int64) != 1 {
			t.Errorf("counts = %v, %v; want 3, 1", va, vb)
		}
	})
	if cart.Instances() != 2 {
		t.Fatalf("instances = %d", cart.Instances())
	}
	cart.Remove("sess-A")
	if cart.Instances() != 1 {
		t.Fatalf("instances after remove = %d", cart.Instances())
	}
}

func TestStatefulRequiresSessionKey(t *testing.T) {
	f := newFixture(t)
	if _, err := DeployStateful(f.edge, "Cart", map[string]Method{
		"m": func(p *sim.Proc, inv *Invocation) (any, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		stub, _ := f.edge.StubFor(p, "edge", "Cart")
		if _, err := stub.Invoke(p, "m"); err == nil {
			t.Error("missing session key accepted")
		}
		if _, err := stub.Invoke(p, "m", sqldb.Int(42)); err == nil {
			t.Error("non-string session key accepted")
		}
	})
}

func TestRWEntityCRUDAgainstDB(t *testing.T) {
	f := newFixture(t)
	inv, err := DeployRWEntity(f.main, "InventoryRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		st, err := inv.Load(p, sqldb.Str("i1"))
		if err != nil {
			t.Errorf("load: %v", err)
			return
		}
		if st.Get("qty").AsInt() != 10 {
			t.Errorf("qty = %v", st.Get("qty"))
		}
		if _, err := inv.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(9)}); err != nil {
			t.Errorf("update: %v", err)
		}
		if err := inv.Insert(p, State{"item_id": sqldb.Str("i3"), "qty": sqldb.Int(7)}); err != nil {
			t.Errorf("insert: %v", err)
		}
		image, err := inv.Snapshot(p)
		if err != nil {
			t.Errorf("snapshot: %v", err)
		}
		if len(image) != 3 {
			t.Errorf("snapshot returned %d entities", len(image))
		}
		if _, err := inv.Load(p, sqldb.Str("ghost")); !errors.Is(err, ErrNoSuchEntity) {
			t.Errorf("load ghost: %v", err)
		}
	})
	if writes := f.count("container_ejb_store_total"); writes != 2 {
		t.Fatalf("writes = %d", writes)
	}
}

// TestWritePushesStoredRow: a write pushes the row the database stored, the
// row main's Load of the key returns — every column in table order, NULLs
// and coerced values included, whatever columns the writer named — so the
// replicas hold main's row shape.
func TestWritePushesStoredRow(t *testing.T) {
	f := newFixture(t)
	if _, err := f.db.Exec(`CREATE TABLE item (id INT PRIMARY KEY, name TEXT, price FLOAT, qty INT)`); err != nil {
		t.Fatal(err)
	}
	rw, err := DeployRWEntity(f.main, "ItemRW", "item", "id")
	if err != nil {
		t.Fatal(err)
	}
	buf := NewUpdateBuffer()
	rw.AddPropagator(buf)
	pk := sqldb.Int(1)
	f.run(t, func(p *sim.Proc) {
		pushed := func(write string) {
			ups := buf.Drain()
			main, err := rw.Load(p, pk)
			if err != nil || len(ups) != 1 {
				t.Errorf("%s: %d updates pushed, load: %v", write, len(ups), err)
				return
			}
			got := ups[0].State
			if !slices.Equal(got.columns(), main.columns()) || !slices.Equal(got.vals, main.vals) {
				t.Errorf("%s pushed %v %v, main loads %v %v", write, got.columns(), got.vals, main.columns(), main.vals)
			}
		}
		if err := rw.Insert(p, State{"id": pk, "price": sqldb.Int(3)}); err != nil {
			t.Errorf("insert: %v", err)
		}
		pushed("Insert")
		if _, err := rw.UpdateFields(p, pk, State{"qty": sqldb.Int(4)}); err != nil {
			t.Errorf("update: %v", err)
		}
		pushed("UpdateFields")
	})
}

// TestWriteAllocs: a warm Insert or UpdateFields whose commit is pushed to
// an edge replica — published (the asynchronous-updates row), or coalesced
// into a window that RMI or the topic carries (the lease and async-batched
// rows) — allocates only its share of the database's row and value blocks
// (about 0.03 a write), plus for an Insert the growth of the table's index
// and the replica's map: no argument list, row, batch, message or delivery
// process of its own (the UPDATE's Load reads a stored row's view), and a
// window no buffer, timer callback, process body or process name.
func TestWriteAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, row := range []pushRow{pushRows[1], pushRows[2], pushRows[3]} {
		t.Run(row.name, func(t *testing.T) {
			f := newFixture(t)
			inv, ro, _, err := wireRow(f.main, f.edge, row)
			if err != nil {
				t.Fatal(err)
			}
			const runs = 1000
			keys := make([]sqldb.Value, 2*runs)
			for i := range keys {
				keys[i] = sqldb.Str(fmt.Sprintf("k%d", i))
			}
			perWrite := func(write func()) float64 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				for range runs { // until the deliveries in flight hold steady
					write()
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range runs {
					write()
				}
				runtime.ReadMemStats(&after)
				return float64(after.Mallocs-before.Mallocs) / runs
			}
			f.run(t, func(p *sim.Proc) {
				st, changes := State{"item_id": keys[0], "qty": sqldb.Int(1)}, State{"qty": sqldb.Int(0)}
				n := 0
				insert := perWrite(func() {
					st["item_id"], n = keys[n], n+1
					if err := inv.Insert(p, st); err != nil {
						t.Errorf("insert: %v", err)
					}
				})
				update := perWrite(func() {
					changes["qty"], n = sqldb.Int(int64(n)), n+1
					if _, err := inv.UpdateFields(p, sqldb.Str("i1"), changes); err != nil {
						t.Errorf("update: %v", err)
					}
				})
				t.Logf("%s: Insert %.4f, UpdateFields %.4f allocations per write", row.name, insert, update)
				if insert > 0.1 || update > 0.032 {
					t.Errorf("a pushed Insert allocates %.3f, UpdateFields %.3f per write, ceilings 0.1 and 0.032", insert, update)
				}
			})
			// Every write reached the edge: each insert is a key of its own,
			// and a window coalesces i1's updates into the last of them.
			if got := f.count("container_updates_applied_total"); got <= 2*runs || row.window == 0 && got != 4*runs {
				t.Errorf("the edge applied %d updates, want every write's (a window's last per entity)", got)
			}
			if q := peekQty(ro, "i1"); q != 4*runs-1 {
				t.Errorf("the edge holds qty %d for i1, want the last write's %d", q, 4*runs-1)
			}
		})
	}
}

func TestROEntityHitMissAndPullRefresh(t *testing.T) {
	f := newFixture(t)
	rw, err := DeployRWEntity(f.main, "InventoryRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	fetches := 0
	ro, err := DeployROEntity(f.edge, "InventoryRO", "InventoryRW", func(p *sim.Proc, pk sqldb.Value) (Row, error) {
		fetches++
		return rw.Load(p, pk) // stands in for the remote façade call
	})
	if err != nil {
		t.Fatal(err)
	}
	ro.SetTTL(time.Second)
	f.run(t, func(p *sim.Proc) {
		// Cold miss fetches.
		st, err := ro.Get(p, sqldb.Str("i1"))
		if err != nil || st.Get("qty").AsInt() != 10 {
			t.Errorf("get: %v, %v", st, err)
		}
		// Second read is a local hit.
		before := p.Now()
		if _, err := ro.Get(p, sqldb.Str("i1")); err != nil {
			t.Errorf("get: %v", err)
		}
		if hitCost := p.Now() - before; hitCost >= time.Millisecond {
			t.Errorf("hit cost %v, want sub-millisecond local read", hitCost)
		}
		// An expired entry is pulled again on the next read.
		p.Sleep(2 * time.Second)
		if _, err := ro.Get(p, sqldb.Str("i1")); err != nil {
			t.Errorf("get after expiry: %v", err)
		}
	})
	if fetches != 2 {
		t.Fatalf("fetches = %d, want 2 (cold miss + pull refresh)", fetches)
	}
	hits, misses, refreshes := f.count("container_replica_hits_total"), f.count("container_replica_misses_total"), f.count("container_replica_stale_refreshes_total")
	if hits != 1 || misses != 1 || refreshes != 1 {
		t.Fatalf("hits=%d misses=%d refreshes=%d", hits, misses, refreshes)
	}
}

func TestROEntityWithoutFetchPath(t *testing.T) {
	f := newFixture(t)
	ro, err := DeployROEntity(f.edge, "InventoryRO", "InventoryRW", nil)
	if err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		if _, err := ro.Get(p, sqldb.Str("i1")); !errors.Is(err, ErrNoSuchEntity) {
			t.Errorf("err = %v", err)
		}
		ro.ApplyUpdate(Update{Bean: "InventoryRW", PK: sqldb.Str("i1"), State: State{"qty": sqldb.Int(4)}.row()})
		st, err := ro.Get(p, sqldb.Str("i1"))
		if err != nil || st.Get("qty").AsInt() != 4 {
			t.Errorf("get after push: %v, %v", st, err)
		}
	})
}

// TestROEntityPreloadAndInvalidateAll: preloaded entries serve locally, and
// Reset invalidates every one of them, so the next read refetches.
func TestROEntityPreloadAndInvalidateAll(t *testing.T) {
	f := newFixture(t)
	fetches := 0
	ro, err := DeployROEntity(f.edge, "RO", "RW", func(p *sim.Proc, pk sqldb.Value) (Row, error) {
		fetches++
		return State{"v": sqldb.Int(99)}.row(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ro.Preload(sqldb.Str("a"), State{"v": sqldb.Int(1)})
	ro.Preload(sqldb.Str("b"), State{"v": sqldb.Int(2)})
	if ro.Cached() != 2 {
		t.Fatalf("cached = %d", ro.Cached())
	}
	f.run(t, func(p *sim.Proc) {
		if st, _ := ro.Get(p, sqldb.Str("a")); st.Get("v").AsInt() != 1 {
			t.Error("preload not served")
		}
		ro.Reset()
		if st, _ := ro.Get(p, sqldb.Str("a")); st.Get("v").AsInt() != 99 {
			t.Error("dropped entry served after Reset")
		}
		if ro.Cached() != 1 {
			t.Errorf("cached after Reset and one read = %d, want 1", ro.Cached())
		}
	})
	if fetches != 1 {
		t.Fatalf("fetches = %d", fetches)
	}
}

func TestQueryCache(t *testing.T) {
	f := newFixture(t)
	fetches := 0
	qc := NewQueryCache(f.edge, "catalogQueries", func(p *sim.Proc, key string) (any, error) {
		fetches++
		return "result-for-" + key, nil
	})
	f.run(t, func(p *sim.Proc) {
		v, err := qc.Get(p, "productsByCategory:FISH")
		if err != nil || v != "result-for-productsByCategory:FISH" {
			t.Errorf("get: %v, %v", v, err)
		}
		if _, err := qc.Get(p, "productsByCategory:FISH"); err != nil {
			t.Errorf("get: %v", err)
		}
		if hits, misses := f.count("container_querycache_hits_total"), f.count("container_querycache_misses_total"); hits != 1 || misses != 1 {
			t.Errorf("hits=%d misses=%d", hits, misses)
		}
		// Prefix invalidation hits only matching keys.
		qc.Put("itemsByProduct:P1", "x")
		n := qc.InvalidatePrefix("productsByCategory:")
		if n != 1 {
			t.Errorf("invalidated %d, want 1", n)
		}
		if _, err := qc.Get(p, "itemsByProduct:P1"); err != nil {
			t.Errorf("unaffected key should still hit: %v", err)
		}
		if _, err := qc.Get(p, "productsByCategory:FISH"); err != nil {
			t.Errorf("refetch: %v", err)
		}
		if fetches != 2 {
			t.Errorf("fetches = %d, want 2", fetches)
		}
		// Push refresh installs without fetch.
		qc.ApplyPush("productsByCategory:DOGS", "pushed")
		v, _ = qc.Get(p, "productsByCategory:DOGS")
		if v != "pushed" {
			t.Errorf("pushed value = %v", v)
		}
	})
	if pushed := f.count("container_querycache_pushed_total"); qc.Size() != 3 || pushed != 1 {
		t.Fatalf("size=%d pushed=%d", qc.Size(), pushed)
	}
}

func TestQueryCacheNoFetchPath(t *testing.T) {
	f := newFixture(t)
	qc := NewQueryCache(f.edge, "qc", nil)
	f.run(t, func(p *sim.Proc) {
		if _, err := qc.Get(p, "missing:1"); err == nil {
			t.Error("miss without fetch path should fail")
		}
	})
}

func TestQueryInvalidationApplier(t *testing.T) {
	f := newFixture(t)
	qc := NewQueryCache(f.edge, "qc", nil)
	qc.Put("itemsByProduct:P1", "old")
	qc.Put("itemsByProduct:P2", "other")
	qi := &QueryInvalidation{
		Cache: qc,
		Affected: func(u Update) []string {
			return []string{"itemsByProduct:P1"}
		},
	}
	qi.ApplyUpdate(Update{Bean: "ItemRW", PK: sqldb.Str("I-1")})
	f.run(t, func(p *sim.Proc) {
		if _, err := qc.Get(p, "itemsByProduct:P2"); err != nil {
			t.Errorf("unaffected entry lost: %v", err)
		}
		if _, err := qc.Get(p, "itemsByProduct:P1"); err == nil {
			t.Error("stale entry served after invalidation")
		}
	})
	// Push mode installs the main server's current result instead.
	views := NewQueryViews(f.env.Metrics(), []CachedQuerySpec{{
		Name: "itemsByProduct", InvalidatedBy: []string{"ItemRW"},
		View: &QueryView{
			Key:   func(c Commit) string { return "itemsByProduct:P1" },
			Query: func(c Commit) (any, error) { return "fresh", nil },
		},
	}})
	if err := views.committed(Commit{Bean: "ItemRW", PK: sqldb.Str("I-1")}, true); err != nil {
		t.Fatal(err)
	}
	qi2 := &QueryInvalidation{Cache: qc, Views: views}
	// A delta too thin to name the product still finds the key.
	qi2.ApplyUpdate(Update{Bean: "ItemRW", PK: sqldb.Str("I-1"), State: State{"qty": sqldb.Int(1)}.row(), Delta: true})
	f.run(t, func(p *sim.Proc) {
		v, err := qc.Get(p, "itemsByProduct:P1")
		if err != nil || v != "fresh" {
			t.Errorf("view push: %v, %v", v, err)
		}
	})
	if pushed := f.count("container_querycache_pushed_total"); pushed != 1 {
		t.Errorf("pushed = %d, want 1", pushed)
	}
}

func TestJDBCRoundTripChargedForRemoteDB(t *testing.T) {
	f := newFixture(t)
	var localCost, remoteCost time.Duration
	f.run(t, func(p *sim.Proc) {
		start := p.Now()
		if _, err := f.main.SQL(p, `SELECT * FROM inventory WHERE item_id = ?`, sqldb.Str("i1")); err != nil {
			t.Errorf("main sql: %v", err)
		}
		localCost = p.Now() - start
		start = p.Now()
		if _, err := f.edge.SQL(p, `SELECT * FROM inventory WHERE item_id = ?`, sqldb.Str("i1")); err != nil {
			t.Errorf("edge sql: %v", err)
		}
		remoteCost = p.Now() - start
	})
	if localCost >= 10*time.Millisecond {
		t.Fatalf("local SQL cost %v, want small", localCost)
	}
	if remoteCost < 200*time.Millisecond {
		t.Fatalf("remote JDBC cost %v, want >= WAN RTT", remoteCost)
	}
	main, edge := f.count(`container_sql_statements_total{server="main"}`), f.count(`container_sql_statements_total{server="edge"}`)
	if main != 1 || edge != 1 {
		t.Fatalf("statement counts: %d, %d", main, edge)
	}
}

func TestDuplicateBeanRejected(t *testing.T) {
	f := newFixture(t)
	if _, err := DeployStateless(f.main, "X", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := DeployStateless(f.main, "X", nil); err == nil {
		t.Fatal("duplicate deployment accepted")
	}
	if _, err := DeployRWEntity(f.main, "X", "inventory", "item_id"); err == nil {
		t.Fatal("duplicate entity deployment accepted")
	}
	if !f.main.HasBean("X") || f.main.Beans() != 1 {
		t.Fatal("bean registry inconsistent")
	}
}

func TestExtendedDescriptorValidate(t *testing.T) {
	good := &ExtendedDescriptor{
		Topic: "updates",
		Replicas: []ReplicaSpec{
			{Bean: "ItemRW", Update: Propagation{Async: true}},
			{Bean: "UserRW"},
		},
		CachedQueries: []CachedQuerySpec{
			{Name: "itemsByProduct", InvalidatedBy: []string{"ItemRW"}},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	bad := []*ExtendedDescriptor{
		{Replicas: []ReplicaSpec{{Bean: ""}}},
		{Replicas: []ReplicaSpec{{Bean: "A"}, {Bean: "A"}}},
		{Replicas: []ReplicaSpec{{Bean: "A", Update: Propagation{Async: true}}}}, // no topic
		{CachedQueries: []CachedQuerySpec{{Name: ""}}},
		{CachedQueries: []CachedQuerySpec{{Name: "q"}, {Name: "q"}}},
	}
	// Edge façades, each case one fault on top of good: an empty bean name,
	// a duplicate façade, a FromCache on a query the descriptor does not
	// cache, a FromReplicas on a bean with no replica, a handler that reads a
	// query the descriptor does not cache.
	key := func([]sqldb.Value) string { return "itemsByProduct:" }
	read := func(*sim.Proc, *EdgeMethod, *Invocation) (any, error) { return nil, nil }
	facade := FromCache("get", "itemsByProduct", key)
	for _, facades := range [][]EdgeFacadeSpec{
		{{Bean: "", Methods: []EdgeMethodSpec{facade}}},
		{{Bean: "SB", Methods: []EdgeMethodSpec{facade}}, {Bean: "SB", Methods: []EdgeMethodSpec{Delegate("put")}}},
		{{Bean: "SB", Methods: []EdgeMethodSpec{FromCache("get", "itemsByCategory", key)}}},
		{{Bean: "SB", Methods: []EdgeMethodSpec{FromReplicas("get", read, "ItemRW", "BidRW")}}},
		{{Bean: "SB", Methods: []EdgeMethodSpec{FromReplicas("get", read, "ItemRW").Reads("itemsByCategory", key)}}},
	} {
		d := *good
		d.EdgeFacades = facades
		bad = append(bad, &d)
	}
	good.EdgeFacades = []EdgeFacadeSpec{{Bean: "SB", Methods: []EdgeMethodSpec{
		facade.OwnedBy("ItemRW"), FromReplicas("item", read, "ItemRW", "UserRW"), FromReplicas("local", read), Delegate("put"),
		FromReplicas("form", read, "UserRW").Reads("itemsByProduct", key),
	}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid edge façade rejected: %v", err)
	}
	for i, d := range bad {
		if err := d.Validate(); !errors.Is(err, ErrBadDescriptor) {
			t.Errorf("bad[%d]: err = %v, want ErrBadDescriptor", i, err)
		}
	}
}

func TestMDBRequiresJMS(t *testing.T) {
	f := newFixture(t)
	noJMS, err := NewServer(Config{
		Name: "edge", DBNode: "main", DB: f.db, Net: f.net, RMI: f.rt,
		Web: web.DefaultOptions,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeployMDB(noJMS, "mdb", "t", nil); err == nil {
		t.Fatal("MDB without JMS accepted")
	}
}

func TestServerValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewServer(Config{Name: "nowhere", DBNode: "main", DB: f.db, Net: f.net, RMI: f.rt, Web: web.DefaultOptions}); err == nil {
		t.Fatal("server on missing node accepted")
	}
	if _, err := NewServer(Config{Name: "main", DBNode: "nowhere", DB: f.db, Net: f.net, RMI: f.rt, Web: web.DefaultOptions}); err == nil {
		t.Fatal("server with missing DB node accepted")
	}
}

func TestBeanKindStrings(t *testing.T) {
	if StatelessSession.String() != "stateless-session" ||
		StatefulSession.String() != "stateful-session" ||
		Entity.String() != "entity" ||
		MessageDriven.String() != "message-driven" {
		t.Fatal("BeanKind strings wrong")
	}
}

// TestStubForHitAllocs pins the EJBHomeFactory fast path: once a bean's stub
// is cached, fetching it builds no JNDI name and no cache key.
func TestStubForHitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	f := newFixture(t)
	if _, err := DeployStateless(f.main, "Catalog", map[string]Method{}); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		if _, err := f.edge.StubFor(p, "main", "Catalog"); err != nil { // the one lookup
			t.Errorf("stub: %v", err)
			return
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := f.edge.StubFor(p, "main", "Catalog"); err != nil {
				t.Errorf("stub: %v", err)
			}
		})
		if allocs > 0 {
			t.Errorf("cached StubFor allocates %.1f objects, want 0", allocs)
		}
	})
}
