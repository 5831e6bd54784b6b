package experiment

import (
	"testing"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/metrics"
	"wadeploy/internal/petstore"
	"wadeploy/internal/rubis"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// browseSteps is a representative remote browser session (no writes).
func browseSteps() []workload.Step {
	return []workload.Step{
		{Page: petstore.PageMain},
		{Page: petstore.PageCategory, Params: map[string]string{"cat": petstore.CategoryID(1)}},
		{Page: petstore.PageProduct, Params: map[string]string{"product": petstore.ProductID(1, 1)}},
		{Page: petstore.PageItem, Params: map[string]string{"item": petstore.ItemID(1, 1, 1)}},
	}
}

// buyerSteps is a full purchase session, ending in order-placement writes.
func buyerSteps() []workload.Step {
	user := petstore.UserID(0)
	return []workload.Step{
		{Page: petstore.PageMain},
		{Page: petstore.PageSignin},
		{Page: petstore.PageVerifySignin, Params: map[string]string{"user": user, "password": "pw-" + user}},
		{Page: petstore.PageCart, Params: map[string]string{"item": petstore.ItemID(1, 1, 1)}},
		{Page: petstore.PageCheckout},
		{Page: petstore.PagePlaceOrder},
		{Page: petstore.PageBilling},
		{Page: petstore.PageCommit},
		{Page: petstore.PageSignout},
	}
}

// runSession deploys Pet Store under cfg, plays the warm steps silently,
// then runs the measured steps (through perStep when given, so callers can
// read counter deltas around each page). Steps run from the edge-1 client
// group; the environment's registry is returned for final assertions.
func runSession(t *testing.T, cfg core.Policy, warm, measured []workload.Step,
	perStep func(reg *metrics.Registry, page string, run func())) *metrics.Registry {
	t.Helper()
	tb, err := Deploy(Spec{App: PetStore, Policy: cfg, RunOptions: RunOptions{Seed: 1}})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	env, remote := tb.Env, tb.Groups[1]
	if remote.ClientNode != simnet.NodeClientsEdge1 {
		t.Fatalf("remote-1 is on %s, want the edge-1 client group", remote.ClientNode)
	}
	request := remote.Request
	reg := env.Metrics()
	client := workload.Client{Node: remote.ClientNode, ID: "invariant-client"}
	var failed error
	env.Spawn("invariants", func(p *sim.Proc) {
		for _, step := range warm {
			if _, err := request(p, client, step); err != nil {
				failed = err
				return
			}
		}
		for _, step := range measured {
			step := step
			if perStep != nil {
				perStep(reg, step.Page, func() {
					if _, err := request(p, client, step); err != nil {
						failed = err
					}
				})
				if failed != nil {
					return
				}
				continue
			}
			if _, err := request(p, client, step); err != nil {
				failed = err
				return
			}
		}
	})
	env.RunAll()
	env.Close()
	if failed != nil {
		t.Fatalf("session: %v", failed)
	}
	return reg
}

// TestInvariantRemoteFacadeOneWANCall asserts the paper's remote-façade
// design rule directly from the metrics registry: with stub caches warm,
// serving any browse page from a remote client costs at most one wide-area
// RMI call (Section 4.2's "exactly one remote call" rule).
func TestInvariantRemoteFacadeOneWANCall(t *testing.T) {
	steps := browseSteps()
	runSession(t, core.RemoteFacade, steps, steps,
		func(reg *metrics.Registry, page string, run func()) {
			before := reg.CounterValue("rmi_wide_area_calls_total")
			run()
			delta := reg.CounterValue("rmi_wide_area_calls_total") - before
			if delta > 1 {
				t.Errorf("page %s: %d wide-area RMI calls, design rule allows at most 1", page, delta)
			}
		})
}

// TestInvariantQueryCachingNoCatalogSQL asserts that query caching removes
// the catalog load from the main database: with caches warm, a remote
// browser session issues zero SQL statements against the category and
// product tables (Section 4.4).
func TestInvariantQueryCachingNoCatalogSQL(t *testing.T) {
	catKey := metrics.LabelName("sqldb_table_statements_total", "table", "category")
	prodKey := metrics.LabelName("sqldb_table_statements_total", "table", "product")
	steps := browseSteps()
	runSession(t, core.QueryCaching, steps, steps,
		func(reg *metrics.Registry, page string, run func()) {
			catBefore := reg.CounterValue(catKey)
			prodBefore := reg.CounterValue(prodKey)
			run()
			if d := reg.CounterValue(catKey) - catBefore; d != 0 {
				t.Errorf("page %s: %d category-table statements, want 0 with warm query caches", page, d)
			}
			if d := reg.CounterValue(prodKey) - prodBefore; d != 0 {
				t.Errorf("page %s: %d product-table statements, want 0 with warm query caches", page, d)
			}
		})
}

// TestInvariantAsyncUpdatesNoBlockingPushes asserts the asynchronous-updates
// rule: writers publish updates to JMS and never perform a blocking WAN
// push. The stateful-caching configuration is the contrast — the same buyer
// session there does block on synchronous pushes.
func TestInvariantAsyncUpdatesNoBlockingPushes(t *testing.T) {
	steps := buyerSteps()
	reg := runSession(t, core.AsyncUpdates, nil, steps, nil)
	if v := reg.CounterValue("container_sync_pushes_total"); v != 0 {
		t.Errorf("async-updates: %d blocking sync pushes, want 0", v)
	}
	if v := reg.CounterValue("container_async_publishes_total"); v == 0 {
		t.Errorf("async-updates: no async publishes recorded; buyer writes should publish updates")
	}
	if v := reg.CounterValue("jms_published_total"); v == 0 {
		t.Errorf("async-updates: jms_published_total is 0, want > 0")
	}

	contrast := runSession(t, core.StatefulCaching, nil, steps, nil)
	if v := contrast.CounterValue("container_sync_pushes_total"); v == 0 {
		t.Errorf("stateful-caching contrast: no sync pushes recorded; writes should block on WAN pushes")
	}
}

// TestInvariantQueryViewsRefreshOncePerCommit asserts the push-based query
// update rule (Section 4.4: the main server computes the fresh result and
// ships it in the bulk push) as a measured cost: in both RUBiS configurations
// that cache queries, a replicated commit costs at most one query
// re-execution however many edges and cache keys it reaches — the listings
// are maintained without SQL — and each edge installs exactly the affected
// keys.
func TestInvariantQueryViewsRefreshOncePerCommit(t *testing.T) {
	for _, cfg := range []core.Policy{core.QueryCaching, core.AsyncUpdates} {
		tb, err := Deploy(Spec{App: RUBiS, Policy: cfg, RunOptions: RunOptions{Seed: 1, Duration: time.Minute}})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		res, err := tb.drive()
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		app := tb.inst.(*rubis.App)
		bids, comments := app.Bids(), app.Comments()
		if bids == 0 || comments == 0 {
			t.Fatalf("%v: %d bids, %d comments: the run wrote nothing", cfg, bids, comments)
		}
		requeries := res.Metrics.Counter("container_queryview_requeries_total")
		maintained := res.Metrics.Counter("container_queryview_maintained_total")
		// Every storeBid commits one Item (bid history re-executed, two
		// listings maintained), every storeComment one User (comment list
		// re-executed, userByNick maintained). A write the run's end cut
		// short is counted but may not have committed, hence the bounds.
		if requeries > bids+comments {
			t.Errorf("%v: %d re-queries for %d replicated commits, want at most one each", cfg, requeries, bids+comments)
		}
		if maintained < requeries || maintained == 0 {
			t.Errorf("%v: %d maintained refreshes against %d re-queries: a listing fell back to SQL", cfg, maintained, requeries)
		}
		// A bid touches three keys, a comment two, on every edge.
		pushed := res.Metrics.Counter("container_querycache_pushed_total")
		if want := (3*bids + 2*comments) * int64(len(tb.d.Edges)); pushed == 0 || pushed > want {
			t.Errorf("%v: %d edge installs, want at most %d (affected keys × edges)", cfg, pushed, want)
		}
	}
}
