package container

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"wadeploy/internal/race"
	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

// zeroInvocation reports whether inv is a recycled, zeroed envelope.
func zeroInvocation(inv *Invocation) bool {
	return inv.Server == nil && inv.Method == "" && inv.Args == nil && inv.Caller == "" && inv.Session == "" && inv.State == nil
}

// holdsOnly reports whether free keeps exactly the envelopes want, each
// once: taking len(want) hands out each of them, and the next take a new one.
// It empties the list.
func holdsOnly[T any](free *sim.Free[T], want ...*T) bool {
	left := map[*T]bool{}
	for _, w := range want {
		left[w] = true
	}
	for range want {
		v := free.Take(*new(T))
		if !left[v] {
			return false
		}
		delete(left, v)
	}
	v := free.Take(*new(T))
	for _, w := range want {
		if v == w {
			return false
		}
	}
	return true
}

// TestEnvelopeLifetime pins the Invocation envelope's contract on both
// session-bean kinds: valid until the business method returns and zeroed
// after, one per invocation in flight on a server, given back by a process
// Env.Close unwinds, and given back once per handler run when the remote
// call carrying it is retried.
func TestEnvelopeLifetime(t *testing.T) {
	t.Run("zeroed after return", func(t *testing.T) {
		f := newFixture(t)
		var kept []*Invocation
		keep := func(p *sim.Proc, inv *Invocation) (any, error) {
			if inv.Server != f.main || len(inv.Args) != 1 || inv.Args[0] != sqldb.Str("x") {
				t.Errorf("%s sees %+v", inv.Method, *inv)
			}
			kept = append(kept, inv)
			return nil, nil
		}
		if _, err := DeployStateless(f.main, "Facade", map[string]Method{"m": keep}); err != nil {
			t.Fatal(err)
		}
		if _, err := DeployStateful(f.main, "Cart", map[string]Method{"m": keep}); err != nil {
			t.Fatal(err)
		}
		f.run(t, func(p *sim.Proc) {
			for bean, args := range map[string][]sqldb.Value{"Facade": {sqldb.Str("x")}, "Cart": {sqldb.Str("session"), sqldb.Str("x")}} {
				stub, _ := f.main.StubFor(p, "main", bean)
				if _, err := stub.Invoke(p, "m", args...); err != nil {
					t.Error(err)
				}
			}
		})
		for _, inv := range kept {
			if !zeroInvocation(inv) {
				t.Errorf("kept envelope %+v, want zeroed", *inv)
			}
		}
		if len(kept) != 2 || kept[0] != kept[1] || !holdsOnly(&f.main.invs, kept[0]) {
			t.Fatalf("%d calls; want 2 sharing one envelope, free once", len(kept))
		}
	})

	t.Run("nested three deep", func(t *testing.T) {
		f := newFixture(t)
		inFlight, seen := map[*Invocation]bool{}, []*Invocation{}
		if _, err := DeployStateless(f.main, "Facade", map[string]Method{
			"nest": func(p *sim.Proc, inv *Invocation) (any, error) {
				if inFlight[inv] {
					t.Errorf("envelope %p handed to a nested call while in flight", inv)
				}
				inFlight[inv], seen = true, append(seen, inv)
				depth := inv.Args[0].I
				if depth < 3 {
					stub, _ := f.main.StubFor(p, "main", "Facade")
					if _, err := stub.Invoke(p, "nest", sqldb.Int(depth+1)); err != nil {
						return nil, err
					}
				}
				if inv.Method != "nest" || inv.Args[0] != sqldb.Int(depth) || inv.Server != f.main {
					t.Errorf("depth %d sees %+v after its inner call returned", depth, *inv)
				}
				delete(inFlight, inv)
				return nil, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		f.run(t, func(p *sim.Proc) {
			stub, _ := f.edge.StubFor(p, "main", "Facade")
			if _, err := stub.Invoke(p, "nest", sqldb.Int(1)); err != nil {
				t.Error(err)
			}
		})
		if len(seen) != 3 || !holdsOnly(&f.main.invs, seen...) {
			t.Fatalf("%d nested calls; want 3 whose three envelopes are all free", len(seen))
		}
	})

	t.Run("killed by Close", func(t *testing.T) {
		f := newFixture(t)
		var killed *Invocation
		if _, err := DeployStateless(f.main, "Facade", map[string]Method{
			"m": func(p *sim.Proc, inv *Invocation) (any, error) { killed = inv; p.Sleep(time.Hour); return nil, nil },
		}); err != nil {
			t.Fatal(err)
		}
		f.env.Spawn("caller", func(p *sim.Proc) {
			stub, _ := f.edge.StubFor(p, "main", "Facade")
			_, _ = stub.Invoke(p, "m")
			t.Error("a killed call returned")
		})
		f.env.Run(time.Minute)
		f.env.Close()
		if killed == nil || !zeroInvocation(killed) || !holdsOnly(&f.main.invs, killed) {
			t.Fatal("the killed call's envelope is not back, zeroed, as the only free one")
		}
	})

	t.Run("retried call releases once", func(t *testing.T) {
		env := sim.NewEnv(5)
		net := simnet.New(env)
		for _, id := range []string{"main", "edge"} {
			if _, err := net.AddNode(id, 2); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := net.AddLink("main", "edge", 100*time.Millisecond, 1e12); err != nil {
			t.Fatal(err)
		}
		net.EnableFaults(5)
		opts := rmi.DefaultOptions
		opts.Retry = &rmi.RetryPolicy{CallTimeout: 500 * time.Millisecond, MaxAttempts: 4, Backoff: 100 * time.Millisecond}
		rt := rmi.NewRuntime(net, opts)
		srv := map[string]*Server{}
		for _, name := range []string{"main", "edge"} {
			s, err := NewServer(Config{Name: name, DBNode: "main", DB: sqldb.New(), Net: net, RMI: rt, Web: web.DefaultOptions, Costs: DefaultCostModel})
			if err != nil {
				t.Fatal(err)
			}
			srv[name] = s
		}
		var used []*Invocation
		if _, err := DeployStateless(srv["main"], "Facade", map[string]Method{
			"m": func(p *sim.Proc, inv *Invocation) (any, error) {
				if len(used) == 0 || used[len(used)-1] != inv {
					used = append(used, inv)
				}
				return nil, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		if err := net.SetLinkQuality("main", "edge", simnet.LinkQuality{DropProb: 0.3}); err != nil {
			t.Fatal(err)
		}
		env.Spawn("caller", func(p *sim.Proc) {
			stub, err := srv["edge"].StubFor(p, "main", "Facade")
			for i := 0; err == nil && i < 30; i++ {
				_, _ = stub.Invoke(p, "m")
			}
		})
		env.RunAll()
		if env.Metrics().CounterValue("rmi_retries_total") == 0 {
			t.Fatal("no call was retried")
		}
		// Sequential calls, retried or not, reuse one envelope; given back
		// twice, it would be handed out twice.
		if len(used) != 1 || !holdsOnly(&srv["main"].invs, used[0]) {
			t.Fatalf("sequential calls used %d envelopes, want 1 that is free once", len(used))
		}
	})
}

// countingApplier counts the updates an updater façade hands it, by key.
type countingApplier map[string]int

func (c countingApplier) ApplyUpdate(u Update) { c[u.PK.AsString()]++ }

// A partitioned commit reaches exactly its key's owners: for every partition,
// a write to a key in it is delivered to the scoped targets owning that
// partition, to the unscoped target, and to nobody else — on every RMI row.
func TestPusherDeliversToOwnersOnly(t *testing.T) {
	spec := &PartitionSpec{Scheme: HashPartition, Partitions: 8}
	keys := make([]string, spec.Partitions) // one key per partition
	for i, found := 0, 0; found < spec.Partitions; i++ {
		k := fmt.Sprintf("k%d", i)
		if p := spec.PartitionForKey(k); keys[p] == "" {
			keys[p], found = k, found+1
		}
	}
	owned := [][]int{{0, 3, 6}, {1, 4, 7}, {2, 5}, {0, 1, 2, 3, 4, 5, 6, 7}, nil}
	for _, row := range pushRows[:2] {
		t.Run(row.name, func(t *testing.T) {
			f := newFixture(t)
			rw, err := DeployRWEntity(f.main, "InvRW", "inventory", "item_id")
			if err != nil {
				t.Fatal(err)
			}
			ps := newPusher(t, f.main, "", row.window, 1024)
			rw.AddPropagator(ps)
			got := make([]countingApplier, len(owned))
			for i := range owned {
				uf, err := DeployUpdaterFacade(f.edge, fmt.Sprintf("U%d", i))
				if err != nil {
					t.Fatal(err)
				}
				got[i] = countingApplier{}
				uf.Register("InvRW", got[i])
				target := PushTarget{Server: "edge", Facade: uf.name}
				// Scope before and after attaching: both orders hold.
				if i%2 == 0 {
					ps.AddTarget(target)
				}
				if owned[i] != nil {
					ps.SetTargetPartitions(target, spec, owned[i])
				}
				ps.AddTarget(target)
			}
			f.run(t, func(p *sim.Proc) {
				for _, k := range keys {
					if err := rw.Insert(p, State{"item_id": sqldb.Str(k), "qty": sqldb.Int(1)}); err != nil {
						t.Error(err)
					}
				}
			})
			for i, own := range owned {
				for part, k := range keys {
					want := 0
					if own == nil || slices.Contains(own, part) {
						want = 1
					}
					if got[i][k] != want {
						t.Errorf("target %d (owns %v): key %s of partition %d delivered %d times, want %d", i, own, k, part, got[i][k], want)
					}
				}
			}
		})
	}
}

// Routing a one-update commit to partition-scoped targets allocates nothing
// before the deliveries: a target owning the key takes the commit's own
// slice, and one that does not is skipped without a message.
func TestPusherRouteAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	f := newFixture(t)
	rw, err := DeployRWEntity(f.main, "InvRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	spec := &PartitionSpec{Scheme: HashPartition, Partitions: 8}
	ps := newPusher(t, f.main, "", 0, 1024)
	rw.AddPropagator(ps)
	part := spec.PartitionForKey("i1")
	for i := 0; i < 16; i++ {
		ps.AddTarget(PushTarget{Server: "edge", Facade: fmt.Sprintf("U%d", i)})
		ps.SetTargetPartitions(PushTarget{Server: "edge", Facade: fmt.Sprintf("U%d", i)}, spec, []int{(part + 1 + i%7) % 8})
	}
	updates := []Update{{Bean: "InvRW", PK: sqldb.Str("i1")}}
	parts := []int{part}
	owner := pushDest{owns: make([]bool, 8)}
	owner.owns[part] = true
	var routed float64
	f.run(t, func(p *sim.Proc) {
		routed = testing.AllocsPerRun(100, func() {
			if err := ps.Propagate(p, updates); err != nil {
				t.Error(err)
			}
			if b := owner.keep(updates, parts); len(b) != 1 || &b[0] != &updates[0] {
				t.Error("an owner of the whole batch got a copy")
			}
		})
	})
	if routed > 0 {
		t.Errorf("routing a one-update commit to 16 scoped targets allocates %.2f objects, want 0", routed)
	}
	if got := f.env.Metrics().Snapshot().Counter("container_sync_pushes_total"); got != 0 {
		t.Fatalf("%d pushes to targets owning nothing of the commit, want 0", got)
	}
}

// TestParkedFetchKeepsItsKey: two processes fetch through one FetchFunc with
// different keys, the second while the first is parked on the WAN. The façade
// sees each call's own bean argument and key, and each fetch returns its own
// entity: an argument list shared between calls, by FetchFrom or by a call
// envelope aliasing it, would hand the first call the second key.
func TestParkedFetchKeepsItsKey(t *testing.T) {
	f := newFixture(t)
	rw, err := DeployRWEntity(f.main, "Inventory", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{} // key -> bean argument
	if _, err := DeployStateless(f.main, "Facade", map[string]Method{
		"fetchState": func(p *sim.Proc, inv *Invocation) (any, error) {
			seen[inv.Args[1].S] = inv.Args[0].S
			return rw.Load(p, inv.Args[1])
		},
	}); err != nil {
		t.Fatal(err)
	}
	fetch := FetchFrom(f.edge, "main", "Facade", "fetchState", sqldb.Str("Inventory"))
	got := map[string]int64{}
	for i, key := range []string{"i1", "i2"} {
		f.env.Spawn(key, func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond) // the first is on the wire by now
			row, err := fetch(p, sqldb.Str(key))
			if err != nil {
				t.Error(err)
				return
			}
			got[key] = row.Get("qty").AsInt()
		})
	}
	f.env.RunAll()
	if seen["i1"] != "Inventory" || seen["i2"] != "Inventory" || len(seen) != 2 {
		t.Errorf("the façade saw %v, want i1 and i2 each with bean Inventory", seen)
	}
	if got["i1"] != 10 || got["i2"] != 5 {
		t.Errorf("fetched quantities %v, want i1:10 i2:5", got)
	}
}
