package container_test

// The event-log replication invariant, tested as a property over seeded
// random write histories: replaying the coalesced log suffix from any sealed
// epoch onto that epoch's state reproduces direct application of every
// commit — even when a WAN partition injected mid-run drops the live
// asynchronous pushes. This file lives in the external test package because
// replog imports container (the in-package property tests cannot).

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/faults"
	"wadeploy/internal/jms"
	"wadeploy/internal/replog"
	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

func cloneRef(ref map[string]container.State) map[string]container.State {
	out := make(map[string]container.State, len(ref))
	for k, v := range ref {
		out[k] = v.Clone()
	}
	return out
}

// rowEquals reports whether row holds exactly st's columns and values.
func rowEquals(row container.Row, st container.State) bool {
	if row.Len() != len(st) {
		return false
	}
	for k, v := range st {
		if sqldb.Compare(row.Get(k), v) != 0 {
			return false
		}
	}
	return true
}

func TestPropertyLogReplayEquivalentToDirectApplication(t *testing.T) {
	for _, seed := range []int64{3, 17, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			env := sim.NewEnv(seed)
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
			rt := rmi.NewRuntime(net, rmi.DefaultOptions)
			provider, err := jms.NewProvider(net, "main", jms.DefaultOptions)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(name string) *container.Server {
				s, err := container.NewServer(container.Config{
					Name: name, DBNode: "main", DB: db, Net: net, RMI: rt, JMS: provider,
					Web: web.DefaultOptions, Costs: container.DefaultCostModel,
				})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			main, edge := mk("main"), mk("edge")
			rw, err := container.DeployRWEntity(main, "InvRW", "inventory", "item_id")
			if err != nil {
				t.Fatal(err)
			}
			rw.SetDeltaPush(true)
			// Live replica fed over JMS: its pushes are lost during the
			// partition below, which is exactly the hole the log replay
			// must close.
			live, err := container.DeployROEntity(edge, "InvRO", "InvRW", nil)
			if err != nil {
				t.Fatal(err)
			}
			uf, err := container.DeployUpdaterFacade(edge, "Updater")
			if err != nil {
				t.Fatal(err)
			}
			uf.Register("InvRW", live)
			ap, err := container.NewPusher(main, "updates", 0, 256)
			if err != nil {
				t.Fatal(err)
			}
			rw.AddPropagator(ap)
			if _, err := container.DeployUpdateSubscriber(edge, "Sub", "updates", uf); err != nil {
				t.Fatal(err)
			}
			store := replog.NewStore(env.Metrics(), 0)
			rw.PrependPropagator(replog.NewRecorder(store))

			// Partition the WAN mid-run: live pushes published inside the
			// window are dropped (no resilience machinery here).
			sched := &faults.Schedule{Name: "midrun", Events: []faults.Event{
				{Kind: faults.LinkDown, A: "main", B: "edge", At: 2 * time.Second, Duration: 3 * time.Second},
			}}
			if err := faults.Arm(net, sched, seed); err != nil {
				t.Fatal(err)
			}

			// Drive an interleaved update/insert/delete history, maintaining
			// the directly-applied reference state and snapshotting it at
			// every sealed epoch.
			ref := make(map[string]container.State)
			epochRef := make(map[int]map[string]container.State)
			env.Spawn("driver", func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(seed))
				nextID, v := 0, int64(0)
				pick := func() string {
					keys := make([]string, 0, len(ref))
					for k := range ref {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					return keys[rng.Intn(len(keys))]
				}
				for i := 0; i < 60; i++ {
					v++
					switch op := rng.Intn(4); {
					case op == 0 || len(ref) == 0: // insert
						nextID++
						pk := fmt.Sprintf("n%d", nextID)
						st := container.State{"item_id": sqldb.Str(pk), "qty": sqldb.Int(v)}
						if err := rw.Insert(p, st); err != nil {
							t.Errorf("insert %s: %v", pk, err)
							return
						}
						ref[pk] = st.Clone()
					case op == 1 && len(ref) > 1: // delete
						pk := pick()
						if err := rw.Delete(p, sqldb.Str(pk)); err != nil {
							t.Errorf("delete %s: %v", pk, err)
							return
						}
						delete(ref, pk)
					default: // update
						pk := pick()
						if _, err := rw.UpdateFields(p, sqldb.Str(pk), container.State{"qty": sqldb.Int(v)}); err != nil {
							t.Errorf("update %s: %v", pk, err)
							return
						}
						ref[pk]["qty"] = sqldb.Int(v)
					}
					if (i+1)%8 == 0 {
						epochRef[store.SealEpoch()] = cloneRef(ref)
					}
					p.Sleep(time.Duration(rng.Intn(200)) * time.Millisecond)
				}
			})
			env.RunAll()

			// Replay from every sealed epoch (and from before the first
			// commit) onto that epoch's snapshot; each must land exactly on
			// the directly-applied final state.
			epochRef[0] = map[string]container.State{}
			epochs := make([]int, 0, len(epochRef))
			for e := range epochRef {
				epochs = append(epochs, e)
			}
			sort.Ints(epochs)
			l := store.Log("InvRW")
			for _, e := range epochs {
				ro, err := container.DeployROEntity(edge, fmt.Sprintf("Replay%d", e), "InvRW", nil)
				if err != nil {
					t.Fatal(err)
				}
				for pk, st := range epochRef[e] {
					ro.Preload(sqldb.Str(pk), st)
				}
				ups, err := l.CoalescedSince(l.HeadAtEpoch(e))
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				for _, u := range ups {
					ro.ApplyUpdate(u)
				}
				if ro.Cached() != len(ref) {
					t.Fatalf("epoch %d: replayed replica holds %d entities, want %d", e, ro.Cached(), len(ref))
				}
				for pk, want := range ref {
					got, ok := ro.Peek(sqldb.Str(pk))
					if !ok {
						t.Fatalf("epoch %d: pk %s missing after replay", e, pk)
					}
					if !rowEquals(got, want) {
						t.Fatalf("epoch %d: pk %s = %v, want %v", e, pk, got, want)
					}
				}
			}
			env.Close()
		})
	}
}
