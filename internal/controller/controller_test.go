package controller_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/faults"
	"wadeploy/internal/planner"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// priceRows sizes the migrated bundle: enough rows that the bulk state
// transfer spans several write intervals, so the drain-buffer replay path
// is genuinely exercised.
const priceRows = 200

// rig is a minimal deployment under controller control: one replicated
// read-write bean (Price) with a remote façade on main, its replica bundle
// wired onto no server (the controller owns the extension) or onto every edge
// (replicas observe every commit).
type rig struct {
	env *sim.Env
	d   *core.Deployment
	w   *core.Wiring
	rw  *container.RWEntity

	writerDone time.Duration // virtual time the write sequence completed
}

func newRig(t *testing.T, seed int64, wired bool) *rig {
	t.Helper()
	env := sim.NewEnv(seed)
	opts := core.DefaultOptions()
	// Resilient, so pushes are best-effort: a partitioned edge must not
	// fail writers.
	opts.Resilience = true
	d, w, rw := priceRig(t, env, opts, priceRows, wired)
	return &rig{env: env, d: d, w: w, rw: rw}
}

// priceRig deploys the Price bean on env with rows seeded and its remote
// façade on main, and wires its replica bundle onto every edge, or with wired
// false onto none.
func priceRig(tb testing.TB, env *sim.Env, opts core.Options, rows int, wired bool) (*core.Deployment, *core.Wiring, *container.RWEntity) {
	tb.Helper()
	d, err := core.NewPaperDeployment(env, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := d.DB.Exec(`CREATE TABLE price (id INT PRIMARY KEY, cents INT NOT NULL)`); err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= rows; i++ {
		if _, err := d.DB.Exec(`INSERT INTO price VALUES (?, ?)`, sqldb.Int(int64(i)), sqldb.Int(int64(100*i))); err != nil {
			tb.Fatal(err)
		}
	}
	rw, err := container.DeployRWEntity(d.Main, "Price", "price", "id")
	if err != nil {
		tb.Fatal(err)
	}
	d.RegisterRW(rw)
	if _, err := container.DeployStateless(d.Main, "PriceFacade", map[string]container.Method{
		"get": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return rw.Load(p, inv.Args[0])
		},
	}); err != nil {
		tb.Fatal(err)
	}
	var on []*container.Server
	if wired {
		on = d.Edges
	}
	w, err := core.AutoWire(d, &container.ExtendedDescriptor{
		Replicas: []container.ReplicaSpec{
			{Bean: "Price"},
		},
	}, core.WireOptions{}, on...)
	if err != nil {
		tb.Fatal(err)
	}
	return d, w, rw
}

// priceModel is the Price rig as the planner sees it: one entity, its façade
// pinned to main, and one page that reads a price from the edge's replica
// when there is one and through the façade otherwise. Replicas pay for a
// reader on an edge; a reader on main gains nothing from them.
func priceModel(remote bool) *planner.Model {
	return &planner.Model{
		Layout: &planner.Layout{
			App: "price",
			Components: []planner.Component{
				planner.Entity("Price", "price", "id"),
				planner.Facade("PriceFacade", container.StatelessSession, planner.EdgeNever),
			},
			Replicated: []string{"Price"},
		},
		Options:  core.DefaultOptions(),
		Patterns: []planner.Pattern{{Name: "Reader", Visits: map[string]float64{"price": 1}}},
		Classes:  []planner.Class{{Pattern: "Reader", Local: !remote, Clients: 1}},
		Pages: []planner.Page{{Name: "price", Body: planner.Read{
			Beans: []string{"Price"},
			Else:  planner.Call{Bean: "PriceFacade", Method: "get", Body: planner.Load{}},
		}}},
	}
}

// startController runs the rig's controller on the Price model with a fast
// epoch clock so extension decisions land within seconds of virtual time.
func (r *rig) startController(t *testing.T, seed int64) *controller.Controller {
	t.Helper()
	c, err := controller.Start(controller.Config{
		Deployment: r.d,
		Wiring:     r.w,
		Model:      priceModel(true),
		Seed:       seed,
		Options:    controller.Options{Epoch: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// spawnWriter applies a fixed-length pseudorandom write sequence — the same
// for every rig built from the same seed, regardless of how propagation or
// migration timing differs between variants.
func (r *rig) spawnWriter(t *testing.T, seed int64, writes int, every time.Duration) {
	t.Helper()
	r.env.Spawn("writer", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < writes; i++ {
			pk := sqldb.Int(1 + rng.Int63n(priceRows))
			cents := sqldb.Int(rng.Int63n(100000))
			if _, err := r.rw.UpdateFields(p, pk, container.State{"cents": cents}); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			p.Sleep(every)
		}
		r.writerDone = p.Now()
	})
}

// settle drives the environment until the write sequence has completed and
// all propagation has quiesced, then runs check as a fresh process. The
// generous horizon costs nothing: virtual time is free once the system goes
// idle (only the controller's epoch tick remains).
func (r *rig) settle(t *testing.T, check func(p *sim.Proc)) {
	t.Helper()
	const horizon = 10 * time.Minute
	r.env.Run(horizon)
	if r.writerDone == 0 {
		t.Fatal("write sequence did not complete within the horizon")
	}
	r.env.Spawn("checker", check)
	r.env.Run(horizon + time.Second)
}

// spawnReader generates steady wide-area read traffic from edge1, which
// writes overlap the migration with. Reads tolerate errors (fault tests cut
// the path mid-run).
func (r *rig) spawnReader(until time.Duration) {
	edge := r.d.Edges[0]
	r.env.Spawn("reader", func(p *sim.Proc) {
		for p.Now() < until {
			if stub, err := edge.StubFor(p, simnet.NodeMain, "PriceFacade"); err == nil {
				stub.Invoke(p, "get", sqldb.Int(7)) //nolint:errcheck
			}
			p.Sleep(50 * time.Millisecond)
		}
	})
}

// groundTruth reads the authoritative table state via a snapshot on main.
func (r *rig) groundTruth(t *testing.T, p *sim.Proc) map[string]container.Row {
	t.Helper()
	rows, err := r.rw.Snapshot(p)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	truth := make(map[string]container.Row, len(rows))
	for _, u := range rows {
		truth[u.PK.String()] = u.State
	}
	return truth
}

// TestMigratedReplicaMatchesNeverMigrated is the migration-correctness
// property: a replica wired mid-run by a live migration (snapshot +
// catch-up + drain-buffer replay, with writes flowing throughout) ends up
// holding exactly the state a replica wired at deploy time observes — which
// is also the authoritative table state once traffic quiesces.
func TestMigratedReplicaMatchesNeverMigrated(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const writes = 600
			final := func(wired bool) (states map[string]map[string]container.Row, replayed int) {
				r := newRig(t, seed, wired)
				var ctrl *controller.Controller
				if !wired {
					ctrl = r.startController(t, seed)
					r.spawnReader(30 * time.Second)
				}
				r.spawnWriter(t, seed+1000, writes, 10*time.Millisecond)

				states = make(map[string]map[string]container.Row)
				r.settle(t, func(p *sim.Proc) {
					truth := r.groundTruth(t, p)
					for _, edge := range r.d.Edges {
						name := edge.Name()
						if !r.w.DeployedOn(name) {
							t.Errorf("edge %s not wired at end of run (wired=%v)", name, wired)
							continue
						}
						ro := r.w.Replica(name, "Price")
						got := make(map[string]container.Row)
						for pk, want := range truth {
							st, ok := ro.Peek(sqldb.Int(atoi(t, pk)))
							if !ok {
								continue // never pushed nor preloaded on this variant
							}
							got[pk] = st
							if !reflect.DeepEqual(st, want) {
								t.Errorf("wired=%v edge %s pk %s: replica %v != authoritative %v",
									wired, name, pk, st, want)
							}
						}
						states[name] = got
					}
				})
				r.env.Close()
				if ctrl != nil {
					for _, m := range ctrl.Report().Migrations {
						replayed += m.Replayed + m.Rounds
					}
				}
				return states, replayed
			}

			live, _ := final(true)
			migrated, replayed := final(false)
			if replayed == 0 {
				t.Fatal("no catch-up rounds or drain-buffer replays: migration did not overlap writes, property untested")
			}
			// Every row the live replica observed must exist, with identical
			// state, on the migrated replica (which holds the full snapshot).
			for edge, rows := range live {
				for pk, want := range rows {
					got, ok := migrated[edge][pk]
					if !ok {
						t.Errorf("edge %s pk %s: present on live replica, missing after migration", edge, pk)
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("edge %s pk %s: migrated %v != never-migrated %v", edge, pk, got, want)
					}
				}
			}
		})
	}
}

func atoi(t *testing.T, s string) int64 {
	t.Helper()
	var n int64
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		t.Fatalf("pk %q: %v", s, err)
	}
	return n
}

// TestControllerDeterminism replays the same seeded scenario — including a
// link flap that forces mid-transfer retries through the controller's
// jittered backoff — and requires bit-identical adaptation reports.
func TestControllerDeterminism(t *testing.T) {
	run := func() *controller.Report {
		seed := int64(11)
		r := newRig(t, seed, false)
		ctrl := r.startController(t, seed)
		s := &faults.Schedule{Events: []faults.Event{
			{Kind: faults.LinkFlap, A: simnet.NodeEdge1, B: simnet.NodeRouter,
				At: 3500 * time.Millisecond, Duration: 4 * time.Second, Cycles: 4},
		}}
		if err := faults.Arm(r.d.Net, s, seed); err != nil {
			t.Fatal(err)
		}
		r.spawnReader(30 * time.Second)
		r.spawnWriter(t, seed+1000, 400, 10*time.Millisecond)
		r.env.Run(45 * time.Second)
		r.env.Close()
		return ctrl.Report()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different adaptation reports:\n%+v\nvs\n%+v", a, b)
	}
	var retries int
	for _, m := range a.Migrations {
		retries += m.Retries
	}
	if retries == 0 {
		t.Error("link flap caused no transfer retries: determinism of the backoff-jitter path untested")
	}
	if !a.Extended {
		t.Error("extension program did not complete")
	}
}

// TestPartitionSuspendResync drives the fault-reaction path end to end: a
// partition is detected within one epoch, pushes are suspended after
// SuspendAfter epochs, and recovery triggers a resync migration that leaves
// the replica equal to the authoritative state despite every push dropped
// during the outage.
func TestPartitionSuspendResync(t *testing.T) {
	seed := int64(5)
	r := newRig(t, seed, true) // wired at deploy: the controller only reacts to faults
	ctrl := r.startController(t, seed)
	s := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.LinkDown, A: simnet.NodeEdge1, B: simnet.NodeRouter,
			At: 5 * time.Second, Duration: 10 * time.Second},
	}}
	if err := faults.Arm(r.d.Net, s, seed); err != nil {
		t.Fatal(err)
	}
	r.spawnWriter(t, seed+1000, 800, 20*time.Millisecond)
	r.settle(t, func(p *sim.Proc) {
		truth := r.groundTruth(t, p)
		ro := r.w.Replica(simnet.NodeEdge1, "Price")
		seen := 0
		for pk, want := range truth {
			st, ok := ro.Peek(sqldb.Int(atoi(t, pk)))
			if !ok {
				continue
			}
			seen++
			if !reflect.DeepEqual(st, want) {
				t.Errorf("pk %s after resync: replica %v != authoritative %v", pk, st, want)
			}
		}
		if seen < priceRows {
			t.Errorf("resync left %d/%d rows on the replica, want the full preloaded image", seen, priceRows)
		}
	})
	r.env.Close()

	var kinds []controller.EventKind
	for _, ev := range ctrl.Report().Events {
		if ev.Server == simnet.NodeEdge1 {
			kinds = append(kinds, ev.Kind)
		}
	}
	want := []controller.EventKind{
		controller.EventFaultDetected,
		controller.EventSuspended,
		controller.EventRecovered,
		controller.EventResynced,
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("edge1 event sequence %v, want %v", kinds, want)
	}
}

// TestStartValidation covers the configuration contract.
func TestStartValidation(t *testing.T) {
	if _, err := controller.Start(controller.Config{}); err == nil {
		t.Error("nil deployment accepted")
	}
	r := newRig(t, 1, false)
	defer r.env.Close()
	if _, err := controller.Start(controller.Config{Deployment: r.d}); err == nil {
		t.Error("nil wiring accepted")
	}
	if _, err := controller.Start(controller.Config{Deployment: r.d, Wiring: r.w}); err == nil {
		t.Error("nil model accepted")
	}
}
