package petstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"wadeploy/internal/container"
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

// siteOf is srv's web site: its servlets' and cart's view of the Catalog.
func siteOf(t *testing.T, a *App, srv *container.Server) *site {
	t.Helper()
	for _, s := range a.sites {
		if s.srv == srv {
			return s
		}
	}
	t.Fatalf("no web site on %s", srv.Name())
	return nil
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
	w := a.Wiring()
	getItem := siteOf(t, a, edge).getItem
	if getItem == nil || getItem.Wired() || getItem.Replicas != nil {
		t.Error("replicas in use before any extension")
	}
	if m := w.EdgeMethod(edge.Name(), BeanCatalog, "getProductsOf"); m == nil || m.Cache != nil || w.Caches[edge.Name()] != nil {
		t.Error("query cache in use before any extension")
	}
	if w.DeployedOn(edge.Name()) {
		t.Error("replica bundle deployed before the controller decided anything")
	}
	wide := env.Metrics().Counter("rmi_wide_area_calls_total")
	env.Spawn("probe", func(p *sim.Proc) {
		before := wide.Value()
		page, err := a.getItemVia(p, siteOf(t, a, edge), sqldb.Str(ItemID(0, 0, 0)))
		if err != nil {
			t.Errorf("getItemVia: %v", err)
			return
		}
		if page.Item.IsZero() {
			t.Error("nil item")
		}
		if n := wide.Value() - before; n != 1 {
			t.Errorf("getItemVia before any extension made %d wide-area calls, want 1 (to main)", n)
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
	w := a.Wiring()
	for _, edge := range d.Edges {
		if !w.DeployedOn(edge.Name()) {
			t.Errorf("replica bundle missing on %s", edge.Name())
		}
		if m := siteOf(t, a, edge).getItem; m == nil || !m.Wired() ||
			m.Replicas[0] != w.Replica(edge.Name(), BeanItem) || m.Replicas[1] != w.Replica(edge.Name(), BeanInventory) {
			t.Errorf("edge %s still not reading from replicas after cut-over", edge.Name())
		}
		if m := w.EdgeMethod(edge.Name(), BeanCatalog, "getProductsOf"); w.Caches[edge.Name()] == nil || m == nil || m.Cache != w.Caches[edge.Name()] {
			t.Errorf("edge %s has no live query cache after cut-over", edge.Name())
		}
	}
	wide := env.Metrics().Counter("rmi_wide_area_calls_total")
	env.Spawn("probe", func(p *sim.Proc) {
		before := wide.Value()
		page, err := a.getItemVia(p, siteOf(t, a, d.Edges[0]), sqldb.Str(ItemID(0, 0, 0)))
		if err != nil {
			t.Errorf("getItemVia after cut-over: %v", err)
			return
		}
		if page.Item.IsZero() {
			t.Error("nil item after cut-over")
		}
		if n := wide.Value() - before; n != 0 {
			t.Errorf("getItemVia after cut-over made %d wide-area calls, want 0", n)
		}
	})
	env.Run(2*time.Minute + 10*time.Second)
	env.Close()
}

// TestAdaptiveCutOverIsOneEvent pins the one cut-over: a client on edge1
// calls its local Catalog back to back, getItem and then getProductsOf over
// two categories, while the controller migrates the bundle in. Every call
// that starts before edge1's migrated event crosses the WAN exactly once (to
// the central Catalog). After it getItem crosses zero times, and
// getProductsOf crosses once only on its first miss per category, which the
// edge's query cache then serves. The call in flight across the cut-over
// completes on the central path it entered.
func TestAdaptiveCutOverIsOneEvent(t *testing.T) {
	env, d, a := deployAdaptive(t, 2, core.AsyncUpdates)
	ctrl := startCutOverController(t, d, a, 2)
	edge := d.Edges[0]
	wide := env.Metrics().Counter("rmi_wide_area_calls_total")

	type call struct {
		method, key string
		start, end  time.Duration
		wan         int64
		err         error
		ok          bool
	}
	var calls []call
	env.Spawn("edge-client", func(p *sim.Proc) {
		for i := 0; p.Now() < 30*time.Second; i++ {
			for _, c := range []call{
				{method: "getItem", key: ItemID(0, 0, 0)},
				{method: "getProductsOf", key: CategoryID(i % 2)},
			} {
				c.start = p.Now()
				before := wide.Value()
				stub, err := a.d.FacadeStub(p, edge, BeanCatalog)
				if err == nil {
					var v any
					v, err = stub.Invoke(p, c.method, sqldb.Str(c.key))
					switch page := v.(type) {
					case *ItemPage:
						c.ok = !page.Item.IsZero()
					case *CategoryPage:
						c.ok = !page.Category.IsZero() && page.Products.Len() > 0
					}
				}
				c.err, c.end, c.wan = err, p.Now(), wide.Value()-before
				calls = append(calls, c)
			}
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
	missed := make(map[string]bool) // categories whose first miss after the cut-over was seen
	for _, c := range calls {
		if c.err != nil || !c.ok {
			t.Fatalf("%s(%s) at %v: ok %v, err %v", c.method, c.key, c.start, c.ok, c.err)
		}
		switch {
		case c.start < at:
			before++
			if c.wan != 1 {
				t.Errorf("%s at %v (before the cut-over at %v) made %d wide-area calls, want 1", c.method, c.start, at, c.wan)
			}
			if c.end > at {
				straddled++
			}
		case c.start > at:
			after++
			want := int64(0)
			if c.method == "getProductsOf" && !missed[c.key] {
				missed[c.key], want = true, 1
			}
			if c.wan != want {
				t.Errorf("%s(%s) at %v (after the cut-over at %v) made %d wide-area calls, want %d", c.method, c.key, c.start, at, c.wan, want)
			}
		}
	}
	if before == 0 || after == 0 || straddled != 1 || len(missed) != 2 {
		t.Errorf("calls before/after/across the cut-over = %d/%d/%d, categories missed after = %d, want some/some/1, 2",
			before, after, straddled, len(missed))
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

// TestAdaptiveDBReplicasArriveWithCutOver: an adaptive run toward DB
// replication attaches each edge's database replica in the cut-over that
// binds its Catalog. A buyer on edge1 commits orders before and after the
// extension; once the run is quiet, every edge's replica holds main's orders
// and inventory rows, and a remote search makes no RMI call.
func TestAdaptiveDBReplicasArriveWithCutOver(t *testing.T) {
	env, d, a := deployAdaptive(t, 2, core.DBReplication)
	ctrl := startCutOverController(t, d, a, 2)
	env.Spawn("buyer", func(p *sim.Proc) {
		for i := 0; p.Now() < time.Minute; i++ {
			user := UserID(i % NumAccounts)
			for _, step := range []struct {
				page   string
				params map[string]string
			}{
				{PageMain, nil}, {PageSignin, nil},
				{PageVerifySignin, map[string]string{"user": user, "password": "pw-" + user}},
				{PageCart, map[string]string{"item": ItemID(i%NumCategories, 1, 2)}},
				{PageCheckout, nil}, {PagePlaceOrder, nil}, {PageBilling, nil}, {PageCommit, nil}, {PageSignout, nil},
			} {
				get(t, a, p, remoteClient, step.page, step.params)
			}
		}
	})
	env.Run(2 * time.Minute)
	rep := ctrl.Report()
	if !rep.Extended {
		t.Fatalf("controller never completed the extension program: %+v", rep.Events)
	}
	var first time.Duration
	for _, ev := range rep.Events {
		if ev.Kind == controller.EventMigrated {
			first = ev.At
			break
		}
	}
	reg := env.Metrics()
	env.Spawn("probe", func(p *sim.Proc) {
		before := reg.CounterValue("rmi_remote_calls_total")
		get(t, a, p, remoteClient, PageSearch, map[string]string{"q": "P04"})
		if got := reg.CounterValue("rmi_remote_calls_total") - before; got != 0 {
			t.Errorf("search after the cut-over made %d RMI calls, want 0 (edge DB replica)", got)
		}
		for _, q := range []string{`SELECT * FROM orders ORDER BY orderid`, `SELECT * FROM inventory ORDER BY itemid`} {
			want, err := d.DB.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, edge := range d.Edges {
				got, err := edge.SQLReplica(p, q)
				if err != nil || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					t.Errorf("%s on %s's replica: %d rows (err %v), want main's %d", q, edge.Name(), got.Len(), err, want.Len())
				}
			}
		}
		orders, err := d.DB.Exec(`SELECT orderdate FROM orders`)
		if err != nil {
			t.Fatal(err)
		}
		var pre, post int
		for _, row := range orders.Rows {
			if time.Duration(row[0].AsInt())*time.Millisecond < first {
				pre++
			} else {
				post++
			}
		}
		if pre == 0 || post == 0 {
			t.Errorf("orders before/after the first cut-over at %v = %d/%d, want some of each", first, pre, post)
		}
	})
	env.Run(2*time.Minute + 10*time.Second)
	env.Close()
}
