package petstore

import (
	"errors"
	"strings"
	"testing"
	"time"

	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

// deployAdaptive deploys an adaptive run toward p: the remote-façade
// configuration plus p's replica bundle wired onto no server, which leaves
// the edge Catalogs forwarding to main until a controller extends the bundle.
func deployAdaptive(t *testing.T, seed int64, p core.Policy) (*sim.Env, *core.Deployment, *App) {
	t.Helper()
	env := sim.NewEnv(seed)
	d, err := core.NewPaperDeployment(env, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Deploy(d, core.RemoteFacade)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Wire(p); err != nil {
		t.Fatal(err)
	}
	return env, d, a
}

// startCutOverController runs the real control loop on the planner model
// with a fast epoch clock, so an idle deployment extends within a minute.
func startCutOverController(t *testing.T, d *core.Deployment, a *App, seed int64) *controller.Controller {
	t.Helper()
	ctrl, err := controller.Start(controller.Config{
		Deployment: d,
		Wiring:     a.Wiring(),
		Model:      PlannerModel(),
		Seed:       seed,
		Options:    controller.Options{Epoch: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// TestAdaptivePreExtensionServesViaCentral: before the controller extends
// anything, an adaptive run behaves exactly like the remote-façade
// configuration — edge catalogs delegate every call to main, no replicas or
// caches are consulted.
func TestAdaptivePreExtensionServesViaCentral(t *testing.T) {
	env, d, a := deployAdaptive(t, 1, core.AsyncUpdates)
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
		page, err := a.getItemVia(p, edge, sqldb.Str(ItemID(0, 0, 0)))
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
// adaptive run: the planner model alone predicts the win, the
// controller live-migrates the bundle to both edges, the edge catalogs read
// the replicas from the cut-over on, and the report records the target as
// the policy the run reached.
func TestAdaptiveControllerCutOver(t *testing.T) {
	env, d, a := deployAdaptive(t, 2, core.AsyncUpdates)
	ctrl := startCutOverController(t, d, a, 2)
	env.Run(2 * time.Minute)

	rep := ctrl.Report()
	if !rep.Extended {
		t.Fatalf("controller never completed the extension program: %+v", rep.Events)
	}
	if rep.FinalConfig != core.AsyncUpdates {
		t.Errorf("final config %v, want %v", rep.FinalConfig, core.AsyncUpdates)
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
		page, err := a.getItemVia(p, d.Edges[0], sqldb.Str(ItemID(0, 0, 0)))
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

// TestAdaptiveCutOverIsOneEvent pins the one cut-over: a client on edge1
// calls getItem on its local Catalog back to back while the controller
// migrates the bundle in. Every call that starts before edge1's migrated
// event crosses the WAN exactly once (to the central Catalog), every call
// after it crosses zero times, and the call in flight across the cut-over
// completes on the central path it entered.
func TestAdaptiveCutOverIsOneEvent(t *testing.T) {
	env, d, a := deployAdaptive(t, 2, core.AsyncUpdates)
	ctrl := startCutOverController(t, d, a, 2)
	edge := d.Edges[0]
	wide := env.Metrics().Counter("rmi_wide_area_calls_total")

	type call struct {
		start, end time.Duration
		wan        int64
		err        error
		page       *ItemPage
	}
	var calls []call
	env.Spawn("edge-client", func(p *sim.Proc) {
		for p.Now() < 30*time.Second {
			c := call{start: p.Now()}
			before := wide.Value()
			stub, err := a.catalogStub(p, edge)
			if err == nil {
				var v any
				v, err = stub.Invoke(p, "getItem", sqldb.Str(ItemID(0, 0, 0)))
				c.page, _ = v.(*ItemPage)
			}
			c.err, c.end, c.wan = err, p.Now(), wide.Value()-before
			calls = append(calls, c)
		}
	})
	env.Run(30 * time.Second)
	env.Close()

	var at time.Duration
	found := false
	for _, ev := range ctrl.Report().Events {
		if ev.Kind == controller.EventMigrated && ev.Server == edge.Name() {
			at, found = ev.At, true
			break
		}
	}
	if !found {
		t.Fatalf("edge %s never migrated: %+v", edge.Name(), ctrl.Report().Events)
	}
	var before, after, straddled int
	for _, c := range calls {
		if c.err != nil || c.page == nil || c.page.Item.IsZero() {
			t.Fatalf("getItem at %v: page %v, err %v", c.start, c.page, c.err)
		}
		switch {
		case c.start < at:
			before++
			if c.wan != 1 {
				t.Errorf("getItem at %v (before the cut-over at %v) made %d wide-area calls, want 1", c.start, at, c.wan)
			}
			if c.end > at {
				straddled++
			}
		case c.start > at:
			after++
			if c.wan != 0 {
				t.Errorf("getItem at %v (after the cut-over at %v) made %d wide-area calls, want 0", c.start, at, c.wan)
			}
		}
	}
	if before == 0 || after == 0 || straddled != 1 {
		t.Errorf("calls before/after/across the cut-over = %d/%d/%d, want some/some/1", before, after, straddled)
	}
}

// TestWireNeedsEntityReplicas: a policy without entity replicas has no
// replica bundle, and Wire refuses it naming the policy.
func TestWireNeedsEntityReplicas(t *testing.T) {
	env, _, a := deployAdaptive(t, 1, core.StatefulCaching)
	defer env.Close()
	for _, p := range []core.Policy{core.Centralized, core.RemoteFacade} {
		if _, err := a.Wire(p); !errors.Is(err, core.ErrPolicy) || !strings.Contains(err.Error(), p.String()) {
			t.Errorf("Wire(%s) = %v, want a policy error naming it", p, err)
		}
	}
}
