package experiment

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/petstore"
	"wadeploy/internal/planner"
	"wadeploy/internal/rubis"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
)

// accuracyBand is the relative error the analytic model must stay within
// against the simulated session means for every paper configuration. The
// closed form ignores CPU queueing (main-server utilization peaks near 25%
// in the centralized runs) and histogram bucketing, which together account
// for a few percent.
const accuracyBand = 0.10

func plannerModels() map[AppID]*planner.Model {
	return map[AppID]*planner.Model{
		PetStore: petstore.PlannerModel(),
		RUBiS:    rubis.PlannerModel(),
	}
}

// simOverall reproduces the planner's objective from a simulated run: the
// client-weighted mean of the per-class session means.
func simOverall(m *planner.Model, r *Result) time.Duration {
	var num, den float64
	for _, cl := range m.Classes {
		num += float64(cl.Clients) * float64(r.SessionMeans[cl.Pattern][cl.Local])
		den += float64(cl.Clients)
	}
	return time.Duration(num / den)
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
			simOv := simOverall(m, sim)
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
			if ov := simOverall(m, r); ov < bestSim {
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

// TestDeployedMatchesPlanned pins each application's one Deploy against the
// plan the planner synthesizes from the same component list: for both apps,
// every valid pattern set (plus DB replication for Pet Store), on the star
// and on a 4-edge/2-hub hierarchy, fully replicated and with 4 hash
// partitions, Deploy either installs on every server exactly the beans
// PlanFor places there, or refuses the combination by name. A deferred
// deployment installs the remote-façade plan plus Pet Store's edge
// catalogs; RUBiS has no deferred path.
func TestDeployedMatchesPlanned(t *testing.T) {
	// Query caches without entity replicas have no deploy path in either
	// app: Pet Store's caches are invalidated by the replicas' pushes, and
	// RUBiS's edge forms read the replicas.
	refused := map[string]bool{"web+queries": true, "web+queries+async": true}
	topologies := map[string]simnet.HierarchySpec{
		"star":      {},
		"hierarchy": {Edges: 4, Hubs: 2},
	}
	deployOn := func(app AppID, spec simnet.HierarchySpec, p core.Policy, deferred bool) (*core.Deployment, error) {
		opts := apps[app].options()
		opts.Topology = spec
		opts.Deferred = deferred
		d, err := core.NewPaperDeployment(sim.NewEnv(1), opts)
		if err != nil {
			t.Fatal(err)
		}
		_, err = apps[app].deploy(d, p)
		return d, err
	}
	// installs checks that every server holds exactly the beans pl places
	// on it.
	installs := func(what string, d *core.Deployment, pl *core.Plan) {
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
	for app, m := range plannerModels() {
		policies := core.PatternSets()
		if app == PetStore {
			policies = append(policies, core.DBReplication)
		}
		for topo, spec := range topologies {
			m.Options.Topology = spec
			for _, partitions := range []int{0, 4} {
				for _, p := range policies {
					if partitions > 0 {
						p.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: partitions}
					}
					what := fmt.Sprintf("%s/%s/%s/%d partitions", app, p.Patterns(), topo, partitions)
					d, err := deployOn(app, spec, p, false)
					if refused[p.Patterns()] {
						if !errors.Is(err, core.ErrPolicy) || !strings.Contains(err.Error(), p.String()) {
							t.Errorf("%s: deployed (%v), want a policy error naming it", what, err)
						}
						continue
					}
					if err != nil {
						t.Errorf("%s: %v", what, err)
						continue
					}
					pl := m.PlanFor(p)
					if err := pl.Validate(); err != nil {
						t.Errorf("%s: plan: %v", what, err)
					}
					installs(what, d, pl)
				}
			}
		}
	}

	d, err := deployOn(PetStore, simnet.HierarchySpec{}, core.AsyncUpdates, true)
	if err != nil {
		t.Fatal(err)
	}
	pl := plannerModels()[PetStore].PlanFor(core.RemoteFacade)
	for i, pm := range pl.Placements {
		if pm.Desc.Name == petstore.BeanCatalog {
			// The edge catalogs, which forward to main until the
			// controller cuts their edge over.
			pl.Placements[i].Servers = append([]string{d.Main.Name()}, d.EdgeNames()...)
		}
	}
	installs("petstore deferred", d, pl)
	if _, err := deployOn(RUBiS, simnet.HierarchySpec{}, core.AsyncUpdates, true); !errors.Is(err, core.ErrPolicy) {
		t.Errorf("rubis deferred: %v, want a policy error", err)
	}
}
