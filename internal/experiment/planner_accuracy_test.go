package experiment

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/petstore"
	"wadeploy/internal/planner"
	"wadeploy/internal/rubis"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// accuracyBand is the relative error the analytic model must stay within
// against the simulated session means for every paper configuration. The
// closed form ignores CPU queueing (main-server utilization peaks near 25%
// in the centralized runs) and histogram bucketing, which together account
// for a few percent.
const accuracyBand = 0.10

func plannerModels() map[AppID]*planner.Model {
	return map[AppID]*planner.Model{PetStore: PlannerModel(PetStore), RUBiS: PlannerModel(RUBiS)}
}

// TestPlannerClientMixMatchesWorkload: each app's advisor model weighs the
// clients App.Workload(1) runs on the paper star — its classes are the
// groups' client sums by (pattern, locality) — and each pattern's page
// weights are the expected visits of the generator those clients run, so
// advisor and driver cannot drift.
func TestPlannerClientMixMatchesWorkload(t *testing.T) {
	const samples = 8192 // sessions the planner averages page weights over
	type class struct {
		pattern string
		local   bool
	}
	for app, m := range plannerModels() {
		d, err := core.NewPaperDeployment(sim.NewEnv(1), apps[app].options())
		if err != nil {
			t.Fatal(err)
		}
		inst, err := apps[app].deploy(d, core.Centralized)
		if err != nil {
			t.Fatal(err)
		}
		clients := make(map[class]int)
		visits := make(map[string]map[string]float64)
		for _, g := range inst.Workload(1) {
			clients[class{g.BrowserPattern, g.Local}] += g.Browsers
			clients[class{g.WriterPattern, g.Local}] += g.Writers
			visits[g.BrowserPattern] = workload.ExpectedVisits(g.BrowserGen, samples, 1)
			visits[g.WriterPattern] = workload.ExpectedVisits(g.WriterGen, samples, 1)
		}
		planned := make(map[class]int)
		for _, cl := range m.Classes {
			planned[class{cl.Pattern, cl.Local}] += cl.Clients
		}
		if !reflect.DeepEqual(planned, clients) {
			t.Errorf("%s: the model's classes %v, the workload's clients %v", app, planned, clients)
		}
		for _, pat := range m.Patterns {
			if !reflect.DeepEqual(pat.Visits, visits[pat.Name]) {
				t.Errorf("%s: %s visits %v, the workload's generator %v", app, pat.Name, pat.Visits, visits[pat.Name])
			}
		}
		if len(m.Patterns) != len(visits) {
			t.Errorf("%s: %d patterns, the workload runs %d", app, len(m.Patterns), len(visits))
		}
		d.Env.Close()
	}
}

func relErr(pred, sim time.Duration) float64 {
	return math.Abs(float64(pred)-float64(sim)) / float64(sim)
}

// TestPlannerPredictionsMatchSimulation validates the analytic cost model
// against the simulation engine: for each application and each of the five
// paper configurations, the predicted per-class session means and the
// overall objective must land within accuracyBand of the measured values.
func TestPlannerPredictionsMatchSimulation(t *testing.T) {
	ps, rb := tables(t)
	sims := map[AppID][]*Result{PetStore: ps, RUBiS: rb}
	for app, m := range plannerModels() {
		res, err := planner.Search(m)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		for _, rk := range res.Ranked {
			if _, ok := rk.Policy.Name(); !ok {
				continue
			}
			sim := byConfig(sims[app], rk.Policy)
			if sim == nil {
				t.Fatalf("%s: no simulated result for %s", app, rk.Policy)
			}
			for _, cm := range rk.PerClass {
				got := sim.SessionMeans[cm.Pattern][cm.Local]
				if got == 0 {
					t.Fatalf("%s/%s: no simulated session mean for %s local=%v",
						app, rk.Policy, cm.Pattern, cm.Local)
				}
				if e := relErr(cm.Mean, got); e > accuracyBand {
					t.Errorf("%s/%s %s local=%v: predicted %v, simulated %v (err %.1f%% > %.0f%%)",
						app, rk.Policy, cm.Pattern, cm.Local, cm.Mean, got,
						e*100, accuracyBand*100)
				}
			}
			simOv := sim.Overall(m.Classes)
			if e := relErr(rk.Overall, simOv); e > accuracyBand {
				t.Errorf("%s/%s overall: predicted %v, simulated %v (err %.1f%% > %.0f%%)",
					app, rk.Policy, rk.Overall, simOv, e*100, accuracyBand*100)
			} else {
				t.Logf("%s/%s overall: predicted %v, simulated %v (err %.1f%%)",
					app, rk.Policy, rk.Overall, simOv, relErr(rk.Overall, simOv)*100)
			}
		}
	}
}

// TestPlannerRecommendsAsyncUpdates pins the headline result: under the
// paper's 80/20 two-remote-group mix the advisor's top-ranked placement is
// the full async-updates configuration for both applications, and the
// simulation agrees that it beats every other paper configuration.
func TestPlannerRecommendsAsyncUpdates(t *testing.T) {
	ps, rb := tables(t)
	sims := map[AppID][]*Result{PetStore: ps, RUBiS: rb}
	for app, m := range plannerModels() {
		res, err := planner.Search(m)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		best := res.Best()
		if best.Policy != core.AsyncUpdates {
			t.Errorf("%s: top-ranked pattern set is %s (%s), want %s",
				app, best.Policy.Patterns(), best.ConfigName(), core.AsyncUpdates)
		}
		if got := res.Greedy(); got != best.Policy {
			t.Errorf("%s: greedy climb ends at %s, exhaustive best is %s",
				app, got.Patterns(), best.Policy.Patterns())
		}
		// The simulation ranks the paper configs the same way at the top.
		bestSim, bestCfg := time.Duration(math.MaxInt64), core.Centralized
		for _, r := range sims[app] {
			if ov := r.Overall(m.Classes); ov < bestSim {
				bestSim, bestCfg = ov, r.Spec.Policy
			}
		}
		if bestCfg != core.AsyncUpdates {
			t.Errorf("%s: simulation ranks %s best, expected %s", app, bestCfg, core.AsyncUpdates)
		}
	}
}

// TestPlannerLadderClimbsAllFourPatterns checks the greedy climb: it starts
// by replicating the web tier (every other pattern depends on it), every
// step strictly improves the objective, and it ends having adopted all four
// paper patterns. The paper's evaluation applies the patterns in a fixed
// cumulative order; the greedy climb may adopt the two caching patterns in
// either order depending on which page weights dominate, but it must arrive
// at the same summit.
func TestPlannerLadderClimbsAllFourPatterns(t *testing.T) {
	for app, m := range plannerModels() {
		res, err := planner.Search(m)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if len(res.Ladder) != len(planner.Features) {
			t.Fatalf("%s: greedy ladder has %d steps (%v), want %d",
				app, len(res.Ladder), res.Ladder, len(planner.Features))
		}
		if res.Ladder[0].Feature != planner.FeatureWeb {
			t.Errorf("%s: ladder starts with %s, want %s",
				app, res.Ladder[0].Feature, planner.FeatureWeb)
		}
		prev := res.Base
		seen := make(map[planner.Feature]bool)
		for i, step := range res.Ladder {
			if seen[step.Feature] {
				t.Errorf("%s: ladder step %d repeats %s", app, i, step.Feature)
			}
			seen[step.Feature] = true
			if step.After >= prev {
				t.Errorf("%s: ladder step %d does not improve (%v -> %v)",
					app, i, prev, step.After)
			}
			prev = step.After
		}
	}
}

// planTopologies are the networks a deployment is held to its plan on: the
// paper's star and a 4-edge/2-hub hierarchy.
var planTopologies = map[string]simnet.HierarchySpec{
	"star":      {},
	"hierarchy": {Edges: 4, Hubs: 2},
}

// installs checks that every server of d holds exactly the beans pl places
// on it.
func installs(t *testing.T, what string, d *core.Deployment, pl *core.Plan) {
	t.Helper()
	for _, srv := range d.Servers() {
		var want []string
		for _, pm := range pl.Placements {
			if slices.Contains(pm.Servers, srv.Name()) {
				want = append(want, pm.Desc.Name)
			}
		}
		for _, name := range want {
			if !srv.HasBean(name) {
				t.Errorf("%s: %s lacks %s", what, srv.Name(), name)
			}
		}
		if srv.Beans() != len(want) {
			t.Errorf("%s: %s holds %d beans, the plan places %v", what, srv.Name(), srv.Beans(), want)
		}
	}
}

// TestDeployedMatchesPlanned pins each application's one Deploy against the
// plan the planner synthesizes from the same component list: for both apps,
// every pattern set the planner ranks plus every extension configuration its
// layout deploys, on the star and on a 4-edge/2-hub hierarchy, fully
// replicated and with 4 hash partitions, Deploy installs on every server
// exactly the beans PlanFor places there.
func TestDeployedMatchesPlanned(t *testing.T) {
	for app, m := range plannerModels() {
		policies := core.PatternSets()
		for _, p := range core.ExtensionConfigs {
			if m.Layout.Check(p) == nil {
				policies = append(policies, p)
			}
		}
		for topo, spec := range planTopologies {
			m.Options.Topology = spec
			for _, partitions := range []int{0, 4} {
				for _, p := range policies {
					if partitions > 0 {
						p.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: partitions}
					}
					what := fmt.Sprintf("%s/%s/%s/%d partitions", app, p.Patterns(), topo, partitions)
					opts := apps[app].options()
					opts.Topology = spec
					d, err := core.NewPaperDeployment(sim.NewEnv(1), opts)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := apps[app].deploy(d, p); err != nil {
						t.Errorf("%s: %v", what, err)
						continue
					}
					pl := m.PlanFor(p)
					if err := pl.Validate(); err != nil {
						t.Errorf("%s: plan: %v", what, err)
					}
					installs(t, what, d, pl)
				}
			}
		}
	}
}

// TestAdaptedMatchesPlanned is TestDeployedMatchesPlanned for a live
// extension: for both apps, every pattern set with entity replicas, on the
// star and the 4-edge/2-hub hierarchy, fully replicated and with 4 hash
// partitions, an adaptive run — the remote-façade deployment, the policy's
// bundle wired onto no server, the controller on — driven by the app's
// workload while the controller extends, then run to quiescence, ends with
// the bundle on every edge, every server holding exactly the beans PlanFor
// places there, every replica equal to the read-write state on the keys it
// owns and holding no other, and every edge query cache entry the main
// server's current view result for its key.
func TestAdaptedMatchesPlanned(t *testing.T) {
	// A Pet Store buyer commits every 72 s, and with 20 s epochs the
	// controller migrates one edge every 20 s from 40 s on: writes commit
	// while edges are cut over.
	const stop, quiet = 150 * time.Second, 4 * time.Minute
	for app, m := range plannerModels() {
		for topo, spec := range planTopologies {
			m.Options.Topology = spec
			for _, partitions := range []int{0, 4} {
				for _, p := range core.PatternSets() {
					if !p.EntityReplicas {
						continue
					}
					if partitions > 0 {
						p.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: partitions}
					}
					what := fmt.Sprintf("%s/%s/%s/%d partitions", app, p.Patterns(), topo, partitions)
					tb, err := Deploy(Spec{App: app, Policy: p, Topology: spec,
						Adaptive: &controller.Options{Epoch: 20 * time.Second}, RunOptions: RunOptions{Seed: 1}})
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					writes := driveUntil(t, tb.Env, tb.Groups, stop, writePages[app])
					tb.Env.Run(quiet)
					if *writes == 0 {
						t.Errorf("%s: the workload committed no writes", what)
					}
					rep := tb.ctrl.Report()
					if !rep.Extended {
						t.Errorf("%s: the controller did not extend to every edge: %+v", what, rep.Events)
					}
					installs(t, what, tb.d, m.PlanFor(p))
					w := tb.inst.Wiring()
					replicasMatchMain(t, what, tb.d, w)
					cachesMatchViews(t, what, tb.d, w)
					tb.Env.Close()
				}
			}
		}
	}
}

// writePages are each app's pages that commit a write.
var writePages = map[AppID][]string{
	PetStore: {petstore.PageCommit},
	RUBiS:    {rubis.PageStoreBid, rubis.PageStoreComment},
}

// replicasMatchMain checks that every edge replica of w equals the
// read-write state on the keys it owns and holds no other.
func replicasMatchMain(t *testing.T, what string, d *core.Deployment, w *core.Wiring) {
	t.Helper()
	for _, bean := range w.ReplicaBeans() {
		image, err := d.RW(bean).Image()
		if err != nil {
			t.Fatal(err)
		}
		for _, edge := range d.EdgeNames() {
			ro := w.Replica(edge, bean)
			if ro == nil {
				continue // reported by installs
			}
			for _, u := range image {
				got, ok := ro.Peek(u.PK)
				switch owned := w.OwnsKey(edge, bean, u.PK); {
				case owned && (!ok || !reflect.DeepEqual(got, u.State)):
					t.Errorf("%s: %s %s %v: replica %v (held %v), read-write %v", what, edge, bean, u.PK, got, ok, u.State)
				case !owned && ok:
					t.Errorf("%s: %s %s holds %v outside its partitions", what, edge, bean, u.PK)
				}
			}
		}
	}
}

// cachesMatchViews checks that every edge query cache of w holds, for every
// key the main server's views hold, exactly their current result, and no
// other key: the edge ≡ main invariant of push-refreshed queries.
func cachesMatchViews(t *testing.T, what string, d *core.Deployment, w *core.Wiring) {
	t.Helper()
	views := w.QueryViews()
	if views == nil {
		return // pull-refreshed caches fetch on demand
	}
	for edge, qc := range w.Caches {
		n := 0
		for key, got := range qc.All() {
			n++
			if want, ok := views.Result(key); !ok || got != want {
				t.Errorf("%s: %s caches %s as %v, main's view %v (held %t)", what, edge, key, got, want, ok)
			}
		}
		all := container.NewQueryCache(d.Main, "views", nil)
		views.Fill(all)
		if n != all.Size() {
			t.Errorf("%s: %s caches %d keys, main's views hold %d", what, edge, n, all.Size())
		}
	}
}

// TestMigrationShipsOwnedKeys: a live migration ships a partitioned edge its
// own slice of each replicated table and charges only those bytes, so each
// edge's snapshot is what its replicas own, and together the edges are sent
// each partitioned row once.
func TestMigrationShipsOwnedKeys(t *testing.T) {
	p := core.AsyncUpdates
	p.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: 8}
	tb, err := Deploy(Spec{App: PetStore, Policy: p,
		Adaptive: &controller.Options{Epoch: 5 * time.Second}, RunOptions: RunOptions{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Env.Run(time.Minute)
	defer tb.Env.Close()
	w := tb.inst.Wiring()
	owned := make(map[string]int)
	whole := 0
	for _, bean := range w.ReplicaBeans() {
		image, err := tb.d.RW(bean).Image()
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range image {
			whole += u.WireBytes()
			for _, edge := range tb.d.EdgeNames() {
				if w.OwnsKey(edge, bean, u.PK) {
					owned[edge] += u.WireBytes()
				}
			}
		}
	}
	migs := tb.ctrl.Report().Migrations
	if len(migs) != len(tb.d.Edges) {
		t.Fatalf("%d migrations, want one per edge: %+v", len(migs), migs)
	}
	for _, m := range migs {
		if m.SnapshotBytes != owned[m.Server] || m.SnapshotBytes >= whole {
			t.Errorf("%s: shipped %d snapshot bytes, owns %d of the tables' %d", m.Server, m.SnapshotBytes, owned[m.Server], whole)
		}
	}
}

// driveUntil runs every client of groups, as workload.Run does — each starts
// at a random offset, draws its sessions from its pattern's generator and
// starts a request per think time — but only until stop, and leaves the
// environment open so the run can quiesce. It returns the count of served
// pages named in writes, read once the run is over.
func driveUntil(t *testing.T, env *sim.Env, groups []workload.Group, stop time.Duration, writes []string) *int {
	t.Helper()
	commits := new(int)
	for _, g := range groups {
		for i := 0; i < g.Browsers+g.Writers; i++ {
			gen := g.BrowserGen
			if i >= g.Browsers {
				gen = g.WriterGen
			}
			client := workload.Client{Node: g.ClientNode, ID: fmt.Sprintf("%s-%d", g.Name, i)}
			rng := env.Rand()
			env.Spawn(client.ID, func(p *sim.Proc) {
				var st workload.StreamState
				p.Sleep(time.Duration(rng.Int63n(int64(g.Delay))))
				for p.Now() < stop {
					var step workload.Step
					if !gen(rng, &st, &step) {
						st = workload.StreamState{}
						continue
					}
					st.Pos++
					if _, err := g.Request(p, client, step); err != nil {
						t.Errorf("%s %s: %v", client.ID, step.Page, err)
						return
					}
					if slices.Contains(writes, step.Page) {
						*commits++
					}
					p.Sleep(g.Delay)
				}
			})
		}
	}
	return commits
}
