package container

import (
	"errors"
	"slices"
	"testing"
	"time"

	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

func TestROEntityTTLInvalidation(t *testing.T) {
	f := newFixture(t)
	rw, err := DeployRWEntity(f.main, "InventoryRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	fetches := 0
	ro, err := DeployROEntity(f.edge, "InventoryRO", "InventoryRW", func(p *sim.Proc, pk sqldb.Value) (Row, error) {
		fetches++
		return rw.Load(p, pk)
	})
	if err != nil {
		t.Fatal(err)
	}
	ro.SetTTL(10 * time.Second)
	f.run(t, func(p *sim.Proc) {
		if _, err := ro.Get(p, sqldb.Str("i1")); err != nil { // cold miss
			t.Fatalf("get: %v", err)
		}
		p.Sleep(5 * time.Second)
		if _, err := ro.Get(p, sqldb.Str("i1")); err != nil { // still fresh
			t.Fatalf("get: %v", err)
		}
		if fetches != 1 {
			t.Fatalf("fetches = %d before expiry, want 1", fetches)
		}
		p.Sleep(6 * time.Second) // now 11s since load
		if _, err := ro.Get(p, sqldb.Str("i1")); err != nil {
			t.Fatalf("get: %v", err)
		}
		if fetches != 2 {
			t.Fatalf("fetches = %d after expiry, want 2", fetches)
		}
	})
}

func TestROEntityTTLResetByPush(t *testing.T) {
	f := newFixture(t)
	fetches := 0
	ro, err := DeployROEntity(f.edge, "RO", "RW", func(p *sim.Proc, pk sqldb.Value) (Row, error) {
		fetches++
		return State{"v": sqldb.Int(1)}.row(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ro.SetTTL(10 * time.Second)
	f.run(t, func(p *sim.Proc) {
		if _, err := ro.Get(p, sqldb.Str("a")); err != nil {
			t.Fatalf("get: %v", err)
		}
		p.Sleep(8 * time.Second)
		// A push renews the entry's clock.
		ro.ApplyUpdate(Update{Bean: "RW", PK: sqldb.Str("a"), State: State{"v": sqldb.Int(2)}.row()})
		p.Sleep(8 * time.Second) // 16s since load, 8s since push
		st, err := ro.Get(p, sqldb.Str("a"))
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if st.Get("v").AsInt() != 2 || fetches != 1 {
			t.Fatalf("v=%v fetches=%d; push should have renewed TTL", st.Get("v"), fetches)
		}
	})
}

func TestROEntityPropagationDelayMetrics(t *testing.T) {
	f := newFixture(t)
	rw, err := DeployRWEntity(f.main, "InventoryRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	ro, err := DeployROEntity(f.edge, "InventoryRO", "InventoryRW", nil)
	if err != nil {
		t.Fatal(err)
	}
	uf, err := DeployUpdaterFacade(f.edge, "Updater")
	if err != nil {
		t.Fatal(err)
	}
	uf.Register("InventoryRW", ro)
	rw.AddPropagator(newPusher(t, f.main, "updates", 0))
	if _, err := DeployUpdateSubscriber(f.edge, "Sub", "updates", uf); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(1)}); err != nil {
			t.Fatalf("update: %v", err)
		}
	})
	// Async delivery crosses the 100ms one-way WAN.
	delay := f.env.Metrics().FindHistogram("container_replica_staleness_ns")
	if d := delay.Max(); d < 100*time.Millisecond || d > time.Second {
		t.Fatalf("max propagation delay = %v, want ~one-way WAN", d)
	}
	if delay.Mean() == 0 {
		t.Fatal("mean propagation delay not recorded")
	}
}

func TestUpdateIfVersionOptimisticConcurrency(t *testing.T) {
	f := newFixture(t)
	if _, err := f.db.Exec(`CREATE TABLE doc (id INT PRIMARY KEY, body TEXT, version INT NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	if _, err := f.db.Exec(`INSERT INTO doc VALUES (1, 'v1', 1)`); err != nil {
		t.Fatal(err)
	}
	rw, err := DeployRWEntity(f.main, "Doc", "doc", "id")
	if err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		// Writer A read version 1 and updates successfully.
		st, err := rw.UpdateIfVersion(p, sqldb.Int(1), "version", 1, State{"body": sqldb.Str("from A")})
		if err != nil {
			t.Fatalf("A: %v", err)
		}
		if st.Get("version").AsInt() != 2 {
			t.Fatalf("version after A = %v", st.Get("version"))
		}
		// Writer B also read version 1 (stale): must be rejected.
		_, err = rw.UpdateIfVersion(p, sqldb.Int(1), "version", 1, State{"body": sqldb.Str("from B")})
		if !errors.Is(err, ErrStaleVersion) {
			t.Fatalf("B: err = %v, want ErrStaleVersion", err)
		}
		cur, err := rw.Load(p, sqldb.Int(1))
		if err != nil {
			t.Fatal(err)
		}
		if cur.Get("body").AsString() != "from A" || cur.Get("version").AsInt() != 2 {
			t.Fatalf("state = %v, stale write leaked", cur)
		}
		// B retries with the fresh version.
		if _, err := rw.UpdateIfVersion(p, sqldb.Int(1), "version", 2, State{"body": sqldb.Str("from B")}); err != nil {
			t.Fatalf("B retry: %v", err)
		}
	})
}

func TestPusherBestEffortSkipsPartitionedEdge(t *testing.T) {
	f := newFixture(t)
	rw, err := DeployRWEntity(f.main, "InventoryRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	ro, err := DeployROEntity(f.edge, "InventoryRO", "InventoryRW", nil)
	if err != nil {
		t.Fatal(err)
	}
	uf, err := DeployUpdaterFacade(f.edge, "Updater")
	if err != nil {
		t.Fatal(err)
	}
	uf.Register("InventoryRW", ro)
	sp := newPusher(t, f.main, "", 0, edgeUpdater)
	sp.BestEffort = true
	rw.AddPropagator(sp)
	if err := f.net.SetLinkState("main", "edge", false); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		// Best-effort: the write succeeds despite the partition.
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(1)}); err != nil {
			t.Fatalf("best-effort write failed: %v", err)
		}
	})
	if skipped := f.env.Metrics().Snapshot().Counter("container_sync_push_skipped_total"); skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if pushes := f.count("container_replica_pushes_total"); pushes != 0 {
		t.Fatalf("pushes = %d, want 0 (partitioned)", pushes)
	}
}

func TestPusherStrictFailsOnPartition(t *testing.T) {
	f := newFixture(t)
	rw, err := DeployRWEntity(f.main, "InventoryRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeployUpdaterFacade(f.edge, "Updater"); err != nil {
		t.Fatal(err)
	}
	rw.AddPropagator(newPusher(t, f.main, "", 0, edgeUpdater))
	if err := f.net.SetLinkState("main", "edge", false); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(1)}); err == nil {
			t.Fatal("strict zero-staleness write succeeded across a partition")
		}
	})
}

func TestDeltaPushMergesChangedFieldsOnly(t *testing.T) {
	f := newFixture(t)
	rw, err := DeployRWEntity(f.main, "InventoryRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	rw.SetDeltaPush(true)
	ro, err := DeployROEntity(f.edge, "InventoryRO", "InventoryRW", nil)
	if err != nil {
		t.Fatal(err)
	}
	uf, err := DeployUpdaterFacade(f.edge, "Updater")
	if err != nil {
		t.Fatal(err)
	}
	uf.Register("InventoryRW", ro)
	rw.AddPropagator(newPusher(t, f.main, "", 0, edgeUpdater))
	ro.Preload(sqldb.Str("i1"), State{"item_id": sqldb.Str("i1"), "qty": sqldb.Int(10)})
	f.run(t, func(p *sim.Proc) {
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(7)}); err != nil {
			t.Fatalf("update: %v", err)
		}
		st, err := ro.Get(p, sqldb.Str("i1"))
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		// Changed field merged; untouched fields survive.
		if st.Get("qty").AsInt() != 7 || st.Get("item_id").AsString() != "i1" {
			t.Fatalf("merged state = %v", st)
		}
	})
}

func TestDeltaPushWithoutLocalCopyIsIgnored(t *testing.T) {
	f := newFixture(t)
	fetches := 0
	rw, err := DeployRWEntity(f.main, "InventoryRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	rw.SetDeltaPush(true)
	ro, err := DeployROEntity(f.edge, "InventoryRO", "InventoryRW", func(p *sim.Proc, pk sqldb.Value) (Row, error) {
		fetches++
		return rw.Load(p, pk)
	})
	if err != nil {
		t.Fatal(err)
	}
	uf, err := DeployUpdaterFacade(f.edge, "Updater")
	if err != nil {
		t.Fatal(err)
	}
	uf.Register("InventoryRW", ro)
	rw.AddPropagator(newPusher(t, f.main, "", 0, edgeUpdater))
	f.run(t, func(p *sim.Proc) {
		// Delta arrives for an entity the replica never loaded: ignored.
		if _, err := rw.UpdateFields(p, sqldb.Str("i2"), State{"qty": sqldb.Int(1)}); err != nil {
			t.Fatalf("update: %v", err)
		}
		// The read fetches the full, correct state.
		st, err := ro.Get(p, sqldb.Str("i2"))
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if st.Get("qty").AsInt() != 1 {
			t.Fatalf("qty = %v", st.Get("qty"))
		}
	})
	if fetches != 1 {
		t.Fatalf("fetches = %d", fetches)
	}
}

func TestUpdateWireBytes(t *testing.T) {
	full := Update{State: State{"a": sqldb.Int(1), "b": sqldb.Int(2)}.row()}
	delta := Update{State: State{"a": sqldb.Int(1)}.row(), Delta: true}
	if full.WireBytes() != 1024 {
		t.Fatalf("full = %d", full.WireBytes())
	}
	if delta.WireBytes() >= full.WireBytes() {
		t.Fatalf("delta %d not smaller than full %d", delta.WireBytes(), full.WireBytes())
	}
}

func TestSyncPushFanOutIsSequential(t *testing.T) {
	// Edges behind the same 100ms one-way WAN: the writer's blocking pushes
	// run one after the other (Section 4.3), so a second edge adds a whole
	// push latency to the write.
	build := func(edges ...string) time.Duration {
		env := sim.NewEnv(3)
		net := simnet.New(env)
		for _, id := range []string{"main", "e1", "e2"} {
			if _, err := net.AddNode(id, 2); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []string{"e1", "e2"} {
			if _, err := net.AddLink("main", id, 100*time.Millisecond, 1e12); err != nil {
				t.Fatal(err)
			}
		}
		db := sqldb.New()
		if _, err := db.Exec(`CREATE TABLE kv (id INT PRIMARY KEY, v INT NOT NULL)`); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`INSERT INTO kv VALUES (1, 0)`); err != nil {
			t.Fatal(err)
		}
		rt := rmi.NewRuntime(net, rmi.DefaultOptions)
		mk := func(name string) *Server {
			s, err := NewServer(Config{
				Name: name, DBNode: "main", DB: db, Net: net, RMI: rt,
				Web: web.DefaultOptions,
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		main, e1, e2 := mk("main"), mk("e1"), mk("e2")
		rw, err := DeployRWEntity(main, "KV", "kv", "id")
		if err != nil {
			t.Fatal(err)
		}
		var targets []PushTarget
		for _, edge := range []*Server{e1, e2} {
			if !slices.Contains(edges, edge.Name()) {
				continue
			}
			targets = append(targets, PushTarget{Server: edge.Name(), Facade: "Updater"})
			ro, err := DeployROEntity(edge, "KVRO", "KV", nil)
			if err != nil {
				t.Fatal(err)
			}
			uf, err := DeployUpdaterFacade(edge, "Updater")
			if err != nil {
				t.Fatal(err)
			}
			uf.Register("KV", ro)
		}
		rw.AddPropagator(newPusher(t, main, "", 0, targets...))
		var cost time.Duration
		env.Spawn("writer", func(p *sim.Proc) {
			start := p.Now()
			if _, err := rw.UpdateFields(p, sqldb.Int(1), State{"v": sqldb.Int(1)}); err != nil {
				t.Errorf("update: %v", err)
			}
			cost = p.Now() - start
		})
		env.RunAll()
		env.Close()
		return cost
	}
	one, two := build("e1"), build("e1", "e2")
	// One push is at least the full-state record out, the acknowledgement
	// back and the half round trip more of Rounds 1.5: 300 ms.
	if one < 300*time.Millisecond {
		t.Fatalf("a write pushed to one edge took %v, want >= one push latency", one)
	}
	if two-one < 300*time.Millisecond {
		t.Fatalf("a write pushed to two edges took %v against %v to one: the pushes overlap", two, one)
	}
}
