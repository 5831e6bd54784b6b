package petstore

import (
	"testing"
	"time"

	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
)

// deferred is p deployed on demand: the web tier up front, the replica
// bundle left for a controller.
func deferred(p core.Policy) core.Policy {
	p.Deferred = true
	return p
}

// TestAdaptivePreExtensionServesViaCentral: before the controller extends
// anything, a deferred deployment behaves exactly like the remote-façade
// configuration — edge catalogs delegate every call to main, no replicas or
// caches are consulted.
func TestAdaptivePreExtensionServesViaCentral(t *testing.T) {
	env := sim.NewEnv(1)
	d, err := core.NewPaperDeployment(env, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Deploy(d, deferred(core.AsyncUpdates))
	if err != nil {
		t.Fatal(err)
	}
	edge := d.Edges[0]
	if a.useReplicas(edge) {
		t.Error("replicas in use before any extension")
	}
	if a.useQueryCache(edge) {
		t.Error("query cache in use before any extension")
	}
	if a.Wiring().DeployedOn(edge.Name()) {
		t.Error("replica bundle deployed before the controller decided anything")
	}
	env.Spawn("probe", func(p *sim.Proc) {
		page, err := a.getItemVia(p, edge, ItemID(0, 0, 0))
		if err != nil {
			t.Errorf("getItemVia: %v", err)
			return
		}
		if page.Item.IsZero() {
			t.Error("nil item")
		}
	})
	env.RunAll()
	env.Close()
}

// TestAdaptiveControllerCutOver runs the real control loop against an idle
// deferred deployment: the planner model alone predicts the win, the
// controller live-migrates the bundle to both edges, the JNDI cut-over
// rebinds the edge catalogs onto the replicas, and the app's effective
// policy is updated to the target.
func TestAdaptiveControllerCutOver(t *testing.T) {
	env := sim.NewEnv(2)
	d, err := core.NewPaperDeployment(env, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Deploy(d, deferred(core.AsyncUpdates))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.Start(controller.Config{
		Deployment: d,
		Wiring:     a.Wiring(),
		Model:      PlannerModel(),
		Seed:       2,
		OnExtend:   a.ActivateEdgeCatalog,
		Apply:      a.SetPolicy,
		Options: controller.Options{
			Epoch:         5 * time.Second,
			ConfirmEpochs: 2,
			Cooldown:      time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Run(2 * time.Minute)

	rep := ctrl.Report()
	if !rep.Extended {
		t.Fatalf("controller never completed the extension program: %+v", rep.Events)
	}
	if rep.FinalConfig != core.AsyncUpdates {
		t.Errorf("final config %v, want %v", rep.FinalConfig, core.AsyncUpdates)
	}
	if a.Policy() != core.AsyncUpdates {
		t.Errorf("app effective policy %v, want %v (Apply hook not invoked?)", a.Policy(), core.AsyncUpdates)
	}
	for _, edge := range d.Edges {
		if !a.Wiring().DeployedOn(edge.Name()) {
			t.Errorf("replica bundle missing on %s", edge.Name())
		}
		if !a.useReplicas(edge) {
			t.Errorf("edge %s still not reading from replicas after cut-over", edge.Name())
		}
		if !a.useQueryCache(edge) {
			t.Errorf("edge %s has no live query cache after cut-over", edge.Name())
		}
	}
	env.Spawn("probe", func(p *sim.Proc) {
		page, err := a.getItemVia(p, d.Edges[0], ItemID(0, 0, 0))
		if err != nil {
			t.Errorf("getItemVia after cut-over: %v", err)
			return
		}
		if page.Item.IsZero() {
			t.Error("nil item after cut-over")
		}
	})
	env.Run(2*time.Minute + 10*time.Second)
	env.Close()
}
