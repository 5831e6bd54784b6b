package container

import (
	"errors"
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
	provider, err := jms.NewProvider(net, "main", jms.DefaultOptions)
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
			Costs:  DefaultCostModel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return &fixture{env: env, net: net, db: db, rt: rt, jms: provider, main: mk("main"), edge: mk("edge")}
}

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
		if err := inv.Delete(p, sqldb.Str("i2")); err != nil {
			t.Errorf("delete: %v", err)
		}
		image, err := inv.Snapshot(p)
		if err != nil {
			t.Errorf("snapshot: %v", err)
		}
		if len(image) != 2 {
			t.Errorf("snapshot returned %d entities", len(image))
		}
		if _, err := inv.Load(p, sqldb.Str("i2")); !errors.Is(err, ErrNoSuchEntity) {
			t.Errorf("load deleted: %v", err)
		}
		if err := inv.Delete(p, sqldb.Str("ghost")); !errors.Is(err, ErrNoSuchEntity) {
			t.Errorf("delete ghost: %v", err)
		}
	})
	if inv.Writes() != 3 {
		t.Fatalf("writes = %d", inv.Writes())
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
	if ro.Hits() != 1 || ro.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", ro.Hits(), ro.Misses())
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
		// Deletion push removes the entry.
		ro.ApplyUpdate(Update{Bean: "InventoryRW", PK: sqldb.Str("i1"), Deleted: true})
		if _, err := ro.Get(p, sqldb.Str("i1")); !errors.Is(err, ErrNoSuchEntity) {
			t.Errorf("err after delete push = %v", err)
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
		if qc.Hits() != 1 || qc.Misses() != 1 {
			t.Errorf("hits=%d misses=%d", qc.Hits(), qc.Misses())
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
	if qc.Size() != 3 || qc.Pushed() != 1 {
		t.Fatalf("size=%d pushed=%d", qc.Size(), qc.Pushed())
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
	if qc.Pushed() != 1 {
		t.Errorf("pushed = %d, want 1", qc.Pushed())
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
	if f.main.SQLStatements() != 1 || f.edge.SQLStatements() != 1 {
		t.Fatalf("statement counts: %d, %d", f.main.SQLStatements(), f.edge.SQLStatements())
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
			{Bean: "ItemRW", Update: AsyncUpdate},
			{Bean: "UserRW", Update: SyncUpdate},
		},
		CachedQueries: []CachedQuerySpec{
			{Name: "itemsByProduct", InvalidatedBy: []string{"ItemRW"}},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	bad := []*ExtendedDescriptor{
		{Replicas: []ReplicaSpec{{Bean: "", Update: SyncUpdate}}},
		{Replicas: []ReplicaSpec{
			{Bean: "A", Update: SyncUpdate},
			{Bean: "A", Update: SyncUpdate},
		}},
		{Replicas: []ReplicaSpec{{Bean: "A"}}},
		{Replicas: []ReplicaSpec{{Bean: "A", Update: AsyncUpdate}}}, // no topic
		{CachedQueries: []CachedQuerySpec{{Name: ""}}},
		{CachedQueries: []CachedQuerySpec{{Name: "q"}, {Name: "q"}}},
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
		Web: web.DefaultOptions, Costs: DefaultCostModel,
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
	if SyncUpdate.String() != "sync" || AsyncUpdate.String() != "async" {
		t.Fatal("UpdateMode strings wrong")
	}
}

func TestStatefulSessionReplicationFailover(t *testing.T) {
	f := newFixture(t)
	methods := func() map[string]Method {
		return map[string]Method{
			"add": func(p *sim.Proc, inv *Invocation) (any, error) {
				inv.State["count"] = sqldb.Int(inv.State["count"].AsInt() + 1)
				return inv.State["count"].AsInt(), nil
			},
			"count": func(p *sim.Proc, inv *Invocation) (any, error) {
				return inv.State["count"].AsInt(), nil
			},
		}
	}
	edgeCart, err := DeployStateful(f.edge, "Cart", methods())
	if err != nil {
		t.Fatal(err)
	}
	mainCart, err := DeployStateful(f.main, "Cart", methods())
	if err != nil {
		t.Fatal(err)
	}
	edgeCart.ReplicateTo("main")
	var plainCost, replCost time.Duration
	f.run(t, func(p *sim.Proc) {
		// Baseline: un-replicated call on main.
		mstub, _ := f.main.StubFor(p, "main", "Cart")
		start := p.Now()
		if _, err := mstub.Invoke(p, "add", sqldb.Str("other")); err != nil {
			t.Errorf("add: %v", err)
		}
		plainCost = p.Now() - start
		// Replicated calls on edge push state across the WAN.
		estub, _ := f.edge.StubFor(p, "edge", "Cart")
		start = p.Now()
		for i := 0; i < 3; i++ {
			if _, err := estub.Invoke(p, "add", sqldb.Str("sess-A")); err != nil {
				t.Errorf("add: %v", err)
			}
		}
		replCost = (p.Now() - start) / 3
		// Failover: the client re-homes to main and resumes the session.
		if !mainCart.Resume("sess-A") {
			t.Error("session not replicated to buddy")
		}
		v, err := mstub.Invoke(p, "count", sqldb.Str("sess-A"))
		if err != nil || v.(int64) != 3 {
			t.Errorf("resumed count = %v, %v; want 3", v, err)
		}
	})
	if edgeCart.Replicated() != 3 {
		t.Fatalf("replicated = %d", edgeCart.Replicated())
	}
	// WAN session replication makes every mutating call pay a push — the
	// reason the paper calls it a LAN-scale mechanism.
	if replCost < plainCost+150*time.Millisecond {
		t.Fatalf("replicated call %v vs plain %v: WAN push not visible", replCost, plainCost)
	}
}

func TestSessionReplicationAcrossPartitionFailsCall(t *testing.T) {
	f := newFixture(t)
	cart, err := DeployStateful(f.edge, "Cart", map[string]Method{
		"add": func(p *sim.Proc, inv *Invocation) (any, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeployStateful(f.main, "Cart", map[string]Method{}); err != nil {
		t.Fatal(err)
	}
	cart.ReplicateTo("main")
	if err := f.net.SetLinkState("main", "edge", false); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		stub, _ := f.edge.StubFor(p, "edge", "Cart")
		if _, err := stub.Invoke(p, "add", sqldb.Str("s")); err == nil {
			t.Error("replicated call across partition succeeded")
		}
	})
}

func TestLookupUncachedPaysEveryTime(t *testing.T) {
	f := newFixture(t)
	if _, err := DeployStateless(f.main, "Svc", map[string]Method{
		"m": func(p *sim.Proc, inv *Invocation) (any, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		// Two uncached lookups both pay the JNDI round trip.
		start := p.Now()
		if _, err := f.edge.LookupUncached(p, "main", "Svc"); err != nil {
			t.Errorf("lookup: %v", err)
		}
		first := p.Now() - start
		start = p.Now()
		if _, err := f.edge.LookupUncached(p, "main", "Svc"); err != nil {
			t.Errorf("lookup: %v", err)
		}
		second := p.Now() - start
		if first < 150*time.Millisecond || second < 150*time.Millisecond {
			t.Errorf("uncached lookups cost %v/%v, want RTT each", first, second)
		}
	})
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
