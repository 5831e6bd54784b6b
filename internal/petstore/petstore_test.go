package petstore

import (
	"math/rand"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/race"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
	"wadeploy/internal/workload"
)

// deployApp builds a fresh deployment with Pet Store installed under cfg.
func deployApp(t *testing.T, cfg core.Policy) *App {
	t.Helper()
	env := sim.NewEnv(5)
	d, err := core.NewPaperDeployment(env, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Deploy(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// get issues one page request from clientNode and returns the response time.
// It must be called from within a sim process.
func get(t *testing.T, a *App, p *sim.Proc, client workload.Client, page string, params map[string]string) time.Duration {
	t.Helper()
	rt, err := a.RequestFunc()(p, client, workload.Step{Page: page, Params: params})
	if err != nil {
		t.Fatalf("%s: %v", page, err)
	}
	return rt
}

var (
	localClient  = workload.Client{Node: simnet.NodeClientsMain, ID: "c-local"}
	remoteClient = workload.Client{Node: simnet.NodeClientsEdge1, ID: "c-remote"}
)

func TestDeployAllConfigs(t *testing.T) {
	for _, cfg := range core.Configs {
		a := deployApp(t, cfg)
		if cfg.EntityReplicas && a.Wiring() == nil {
			t.Errorf("%v: no wiring", cfg)
		}
		a.Deployment().Env.Close()
	}
}

func TestSchemaSeedSizes(t *testing.T) {
	db := sqldb.New()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	checks := map[string]int{
		"category":  NumCategories,
		"product":   NumProducts,
		"item":      NumItems,
		"inventory": NumItems,
		"signon":    NumAccounts,
		"account":   NumAccounts,
		"orders":    0,
	}
	for table, want := range checks {
		n, err := db.RowCount(table)
		if err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		if n != want {
			t.Errorf("%s rows = %d, want %d", table, n, want)
		}
	}
}

func TestComponentInventoryMatchesTable1(t *testing.T) {
	inv := ComponentInventory()
	if len(inv) != 8 {
		t.Fatalf("inventory = %d EJBs, Table 1 lists 8", len(inv))
	}
	kinds := map[string]container.BeanKind{}
	for _, e := range inv {
		kinds[e.Name] = e.Kind
		if e.Desc == "" {
			t.Errorf("%s has no description", e.Name)
		}
	}
	if kinds[BeanCatalog] != container.StatelessSession ||
		kinds[BeanCustomer] != container.StatelessSession {
		t.Error("stateless beans wrong")
	}
	if kinds[BeanCart] != container.StatefulSession ||
		kinds[BeanController] != container.StatefulSession {
		t.Error("stateful beans wrong")
	}
	for _, e := range []string{BeanInventory, BeanSignOn, BeanOrder, BeanAccount} {
		if kinds[e] != container.Entity {
			t.Errorf("%s should be an entity bean", e)
		}
	}
}

func TestBrowserSessionShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	const sessions = 500
	for i := 0; i < sessions; i++ {
		steps := session(BrowserStream, rng)
		if len(steps) != BrowserSessionLength {
			t.Fatalf("session length = %d", len(steps))
		}
		if steps[0].Page != PageMain {
			t.Fatalf("first page = %s, want Main", steps[0].Page)
		}
		lastProduct := ""
		for _, s := range steps {
			counts[s.Page]++
			switch s.Page {
			case PageProduct:
				lastProduct = s.Params["product"]
			case PageItem:
				item := s.Params["item"]
				if lastProduct != "" && len(item) > len(lastProduct) && item[:len(lastProduct)] != lastProduct {
					t.Fatalf("item %s does not belong to previous product %s", item, lastProduct)
				}
			}
		}
	}
	total := sessions * BrowserSessionLength
	// Item should be the most frequent page (45% weight), Category ~15%.
	if counts[PageItem] < counts[PageProduct] || counts[PageProduct] < counts[PageCategory] {
		t.Fatalf("weight ordering violated: %v", counts)
	}
	itemFrac := float64(counts[PageItem]) / float64(total)
	if itemFrac < 0.35 || itemFrac > 0.52 {
		t.Fatalf("item fraction = %v, want ~0.45", itemFrac)
	}
}

func TestBuyerSessionSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	steps := session(BuyerStream, rng)
	if len(steps) != len(BuyerPages) {
		t.Fatalf("buyer session length = %d", len(steps))
	}
	for i, s := range steps {
		if s.Page != BuyerPages[i] {
			t.Fatalf("step %d = %s, want %s", i, s.Page, BuyerPages[i])
		}
	}
	auth := steps[2].Params
	if auth["user"] == "" || auth["password"] != "pw-"+auth["user"] {
		t.Fatalf("auth params = %v", auth)
	}
	if steps[3].Params["item"] == "" {
		t.Fatal("cart step has no item")
	}
}

func TestCentralizedRemotePenaltyIsTwoRTTs(t *testing.T) {
	a := deployApp(t, core.Centralized)
	var local, remote time.Duration
	core.RunWarm(a.Deployment().Env, "probe", func(p *sim.Proc) {
		local = get(t, a, p, localClient, PageMain, nil)
		remote = get(t, a, p, remoteClient, PageMain, nil)
	})
	delta := remote - local
	// Two WAN round trips = 400ms (TCP handshake + HTTP exchange).
	if delta < 390*time.Millisecond || delta > 440*time.Millisecond {
		t.Fatalf("remote penalty = %v, want ~400ms", delta)
	}
	if local < 50*time.Millisecond || local > 130*time.Millisecond {
		t.Fatalf("centralized local Main = %v, want Pet Store ballpark", local)
	}
}

func TestRemoteFacadeServesSessionPagesLocally(t *testing.T) {
	a := deployApp(t, core.RemoteFacade)
	var mainPage, category, verify time.Duration
	core.RunWarm(a.Deployment().Env, "probe", func(p *sim.Proc) {
		user := UserID(0)
		auth := map[string]string{"user": user, "password": "pw-" + user}
		// Warm the EJBHomeFactory stub caches: the very first call to each
		// façade pays a one-time JNDI lookup.
		get(t, a, p, remoteClient, PageCategory, map[string]string{"cat": CategoryID(9)})
		get(t, a, p, remoteClient, PageVerifySignin, auth)
		mainPage = get(t, a, p, remoteClient, PageMain, nil)
		category = get(t, a, p, remoteClient, PageCategory, map[string]string{"cat": CategoryID(0)})
		get(t, a, p, remoteClient, PageSignin, nil)
		verify = get(t, a, p, remoteClient, PageVerifySignin, auth)
	})
	if mainPage > 150*time.Millisecond {
		t.Fatalf("remote Main = %v, want local-like (served by edge)", mainPage)
	}
	// Category needs one wide-area RMI: between 1 and 2 RTTs of extra cost.
	if category < 250*time.Millisecond || category > 500*time.Millisecond {
		t.Fatalf("remote Category = %v, want ~1 RMI call", category)
	}
	// VerifySignin makes two RMI calls.
	if verify < 550*time.Millisecond || verify > 800*time.Millisecond {
		t.Fatalf("remote VerifySignin = %v, want ~2 RMI calls", verify)
	}
}

func TestRemoteFacadeOneRMIPerCategoryPage(t *testing.T) {
	a := deployApp(t, core.RemoteFacade)
	rt := a.Deployment().RMI
	core.RunWarm(a.Deployment().Env, "probe", func(p *sim.Proc) {
		// Warm stub caches first.
		get(t, a, p, remoteClient, PageCategory, map[string]string{"cat": CategoryID(0)})
		before := rt.Stats().RemoteCalls
		get(t, a, p, remoteClient, PageCategory, map[string]string{"cat": CategoryID(1)})
		if got := rt.Stats().RemoteCalls - before; got != 1 {
			t.Errorf("Category page made %d wide-area RMI calls, want 1", got)
		}
	})
}

func TestStatefulCachingItemPageLocal(t *testing.T) {
	a := deployApp(t, core.StatefulCaching)
	rt := a.Deployment().RMI
	var item time.Duration
	core.RunWarm(a.Deployment().Env, "probe", func(p *sim.Proc) {
		before := rt.Stats().RemoteCalls
		item = get(t, a, p, remoteClient, PageItem, map[string]string{"item": ItemID(0, 0, 0)})
		if got := rt.Stats().RemoteCalls - before; got != 0 {
			t.Errorf("Item page made %d wide-area RMI calls, want 0 (read-only beans)", got)
		}
	})
	if item > 150*time.Millisecond {
		t.Fatalf("remote Item = %v, want local (read-only beans)", item)
	}
}

func TestStatefulCachingCommitBlocksOnPush(t *testing.T) {
	sync := buyerCommitTime(t, core.StatefulCaching, localClient)
	facade := buyerCommitTime(t, core.RemoteFacade, localClient)
	// Blocking pushes to two edges add at least 2 RTTs to local commits.
	if sync < facade+350*time.Millisecond {
		t.Fatalf("sync commit = %v vs façade commit = %v: blocking push not visible", sync, facade)
	}
}

func TestAsyncUpdatesUnblockCommit(t *testing.T) {
	async := buyerCommitTime(t, core.AsyncUpdates, localClient)
	syncT := buyerCommitTime(t, core.QueryCaching, localClient)
	if async > syncT-300*time.Millisecond {
		t.Fatalf("async commit = %v vs sync commit = %v: async should remove WAN blocking", async, syncT)
	}
}

// buyerCommitTime runs one buyer session and returns the Commit page time.
func buyerCommitTime(t *testing.T, cfg core.Policy, client workload.Client) time.Duration {
	t.Helper()
	a := deployApp(t, cfg)
	var commit time.Duration
	core.RunWarm(a.Deployment().Env, "buyer", func(p *sim.Proc) {
		user := UserID(1)
		get(t, a, p, client, PageMain, nil)
		get(t, a, p, client, PageSignin, nil)
		get(t, a, p, client, PageVerifySignin, map[string]string{"user": user, "password": "pw-" + user})
		get(t, a, p, client, PageCart, map[string]string{"item": ItemID(1, 1, 1)})
		get(t, a, p, client, PageCheckout, nil)
		get(t, a, p, client, PagePlaceOrder, nil)
		get(t, a, p, client, PageBilling, nil)
		commit = get(t, a, p, client, PageCommit, nil)
		get(t, a, p, client, PageSignout, nil)
	})
	if a.Orders() != 1 {
		t.Fatalf("orders = %d, want 1", a.Orders())
	}
	return commit
}

func TestBuyerSessionEndToEndUpdatesState(t *testing.T) {
	a := deployApp(t, core.StatefulCaching)
	item := ItemID(2, 3, 1)
	core.RunWarm(a.Deployment().Env, "buyer", func(p *sim.Proc) {
		user := UserID(5)
		get(t, a, p, remoteClient, PageMain, nil)
		get(t, a, p, remoteClient, PageSignin, nil)
		get(t, a, p, remoteClient, PageVerifySignin, map[string]string{"user": user, "password": "pw-" + user})
		get(t, a, p, remoteClient, PageCart, map[string]string{"item": item})
		get(t, a, p, remoteClient, PageCheckout, nil)
		get(t, a, p, remoteClient, PagePlaceOrder, nil)
		get(t, a, p, remoteClient, PageBilling, nil)
		get(t, a, p, remoteClient, PageCommit, nil)
		get(t, a, p, remoteClient, PageSignout, nil)
	})
	db := a.Deployment().DB
	orders, err := db.RowCount("orders")
	if err != nil {
		t.Fatal(err)
	}
	if orders != 1 {
		t.Fatalf("orders = %d", orders)
	}
	inv, err := db.Query(`SELECT qty FROM inventory WHERE itemid = ?`, sqldb.Str(item))
	if err != nil {
		t.Fatal(err)
	}
	if inv.Rows[0][0].AsInt() != InitialInventoryQty-1 {
		t.Fatalf("inventory = %v, want decremented", inv.Rows[0][0])
	}
	// Zero staleness: both edge replicas already hold the new quantity.
	for _, edge := range a.Deployment().Edges {
		ro := a.Wiring().Replica(edge.Name(), BeanInventory)
		core.RunWarm(a.Deployment().Env, "check", func(p *sim.Proc) {
			st, err := ro.Get(p, sqldb.Str(item))
			if err != nil {
				t.Errorf("%s: %v", edge.Name(), err)
				return
			}
			if st["qty"].AsInt() != InitialInventoryQty-1 {
				t.Errorf("%s replica qty = %v, want %d", edge.Name(), st["qty"], InitialInventoryQty-1)
			}
		})
	}
}

func TestQueryCachingCategoryPageLocalAfterWarm(t *testing.T) {
	a := deployApp(t, core.QueryCaching)
	rt := a.Deployment().RMI
	core.RunWarm(a.Deployment().Env, "probe", func(p *sim.Proc) {
		params := map[string]string{"cat": CategoryID(3)}
		// First access misses and pays the pull fetch.
		first := get(t, a, p, remoteClient, PageCategory, params)
		before := rt.Stats().RemoteCalls
		second := get(t, a, p, remoteClient, PageCategory, params)
		if got := rt.Stats().RemoteCalls - before; got != 0 {
			t.Errorf("warm Category page made %d RMI calls, want 0", got)
		}
		if second > 150*time.Millisecond {
			t.Errorf("warm remote Category = %v, want local", second)
		}
		if first < 250*time.Millisecond {
			t.Errorf("cold remote Category = %v, want a pull fetch", first)
		}
		// Search is never cached: still one RMI.
		before = rt.Stats().RemoteCalls
		get(t, a, p, remoteClient, PageSearch, map[string]string{"q": "P01"})
		if got := rt.Stats().RemoteCalls - before; got != 1 {
			t.Errorf("Search made %d RMI calls, want 1", got)
		}
	})
}

func TestBadCredentialsFail(t *testing.T) {
	a := deployApp(t, core.Centralized)
	core.RunWarm(a.Deployment().Env, "probe", func(p *sim.Proc) {
		_, err := a.RequestFunc()(p, localClient, workload.Step{
			Page:   PageVerifySignin,
			Params: map[string]string{"user": UserID(0), "password": "wrong"},
		})
		if err == nil {
			t.Error("bad credentials accepted")
		}
	})
}

func TestCommitWithoutSigninFails(t *testing.T) {
	a := deployApp(t, core.Centralized)
	core.RunWarm(a.Deployment().Env, "probe", func(p *sim.Proc) {
		if _, err := a.RequestFunc()(p, localClient, workload.Step{Page: PageCommit}); err == nil {
			t.Error("commit without signin accepted")
		}
		if _, err := a.RequestFunc()(p, localClient, workload.Step{Page: PageBilling}); err == nil {
			t.Error("billing without signin accepted")
		}
	})
}

func TestPaperWorkloadRates(t *testing.T) {
	a := deployApp(t, core.Centralized)
	groups := a.Workload(1)
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	total := 0.0
	locals := 0
	for _, g := range groups {
		total += g.Rate()
		if g.Local {
			locals++
		}
		browserFrac := float64(g.Browsers) / float64(g.Browsers+g.Writers)
		if browserFrac != 0.8 {
			t.Errorf("group %s browser fraction = %v, want 0.8", g.Name, browserFrac)
		}
	}
	if total != 30 {
		t.Fatalf("combined rate = %v req/s, want 30", total)
	}
	if locals != 1 {
		t.Fatalf("local groups = %d, want 1", locals)
	}
	a.Deployment().Env.Close()
}

func TestPagesRegisteredOnActiveServers(t *testing.T) {
	allPages := len(BrowserPages) + len(BuyerPages) - 1 // Main shared
	a := deployApp(t, core.Centralized)
	if got := a.Deployment().Main.Web().Pages(); got != allPages {
		t.Fatalf("main pages = %d, want %d", got, allPages)
	}
	for _, e := range a.Deployment().Edges {
		if e.Web().Pages() != 0 {
			t.Fatalf("centralized edge has %d pages", e.Web().Pages())
		}
	}
	a2 := deployApp(t, core.RemoteFacade)
	for _, s := range a2.Deployment().Servers() {
		if s.Web().Pages() != allPages {
			t.Fatalf("%s pages = %d, want %d", s.Name(), s.Web().Pages(), allPages)
		}
	}
}

var _ = web.DefaultOptions // keep import for potential helpers

func TestDBReplicationMakesSearchLocal(t *testing.T) {
	a := deployApp(t, core.DBReplication)
	rt := a.Deployment().RMI
	core.RunWarm(a.Deployment().Env, "probe", func(p *sim.Proc) {
		before := rt.Stats().RemoteCalls
		searchT := get(t, a, p, remoteClient, PageSearch, map[string]string{"q": "P04"})
		if got := rt.Stats().RemoteCalls - before; got != 0 {
			t.Errorf("Search made %d RMI calls, want 0 (edge DB replica)", got)
		}
		if searchT > 150*time.Millisecond {
			t.Errorf("remote Search = %v, want local via DB replica", searchT)
		}
		// Everything from the async configuration still holds.
		itemT := get(t, a, p, remoteClient, PageItem, map[string]string{"item": ItemID(0, 0, 0)})
		if itemT > 150*time.Millisecond {
			t.Errorf("remote Item = %v", itemT)
		}
	})
	if a.DBPrimary() == nil || a.DBPrimary().Replicas() != 2 {
		t.Fatal("DB replication not wired")
	}
}

func TestDBReplicationStreamsOrderWrites(t *testing.T) {
	a := deployApp(t, core.DBReplication)
	item := ItemID(4, 4, 2)
	core.RunWarm(a.Deployment().Env, "buyer", func(p *sim.Proc) {
		user := UserID(9)
		get(t, a, p, remoteClient, PageMain, nil)
		get(t, a, p, remoteClient, PageSignin, nil)
		get(t, a, p, remoteClient, PageVerifySignin, map[string]string{"user": user, "password": "pw-" + user})
		get(t, a, p, remoteClient, PageCart, map[string]string{"item": item})
		get(t, a, p, remoteClient, PageCheckout, nil)
		get(t, a, p, remoteClient, PagePlaceOrder, nil)
		get(t, a, p, remoteClient, PageBilling, nil)
		get(t, a, p, remoteClient, PageCommit, nil)
		get(t, a, p, remoteClient, PageSignout, nil)
	})
	// After the env drains, the inserted order rows exist on the edge
	// replicas too (statement-based replication in commit order).
	if a.DBPrimary().Shipped() == 0 {
		t.Fatal("no statements shipped")
	}
	for _, edge := range a.Deployment().Edges {
		n := int64(0)
		core.RunWarm(a.Deployment().Env, "check", func(p *sim.Proc) {
			res, err := edge.SQLReplica(p, `SELECT orderid FROM orders`)
			if err != nil {
				t.Fatalf("%s: %v", edge.Name(), err)
			}
			n = int64(res.Len())
		})
		if n != 1 {
			t.Fatalf("%s replica orders = %d, want 1", edge.Name(), n)
		}
	}
}

func TestAsyncUpdatesEventuallyConsistentReplicas(t *testing.T) {
	a := deployApp(t, core.AsyncUpdates)
	item := ItemID(6, 2, 0)
	core.RunWarm(a.Deployment().Env, "buyer", func(p *sim.Proc) {
		user := UserID(11)
		get(t, a, p, remoteClient, PageMain, nil)
		get(t, a, p, remoteClient, PageSignin, nil)
		get(t, a, p, remoteClient, PageVerifySignin, map[string]string{"user": user, "password": "pw-" + user})
		get(t, a, p, remoteClient, PageCart, map[string]string{"item": item})
		get(t, a, p, remoteClient, PageCheckout, nil)
		get(t, a, p, remoteClient, PagePlaceOrder, nil)
		get(t, a, p, remoteClient, PageBilling, nil)
		get(t, a, p, remoteClient, PageCommit, nil)
		get(t, a, p, remoteClient, PageSignout, nil)
	})
	// RunWarm drained the environment: the asynchronously pushed inventory
	// update has reached both edge replicas.
	for _, edge := range a.Deployment().Edges {
		ro := a.Wiring().Replica(edge.Name(), BeanInventory)
		core.RunWarm(a.Deployment().Env, "check", func(p *sim.Proc) {
			st, err := ro.Get(p, sqldb.Str(item))
			if err != nil {
				t.Errorf("%s: %v", edge.Name(), err)
				return
			}
			if st["qty"].AsInt() != InitialInventoryQty-1 {
				t.Errorf("%s replica qty = %v, want converged %d", edge.Name(), st["qty"], InitialInventoryQty-1)
			}
		})
		if ro.MeanPropagationDelay() < 50*time.Millisecond {
			t.Errorf("%s propagation delay = %v, want WAN-scale (async)", edge.Name(), ro.MeanPropagationDelay())
		}
	}
	if a.Deployment().JMS.Published() == 0 {
		t.Fatal("no JMS traffic in async configuration")
	}
}

// TestSessionForHitAllocs pins the per-page session lookup: a client that
// already has its session on the server builds no key to find it.
func TestSessionForHitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	a := deployApp(t, core.Centralized)
	srv := a.d.ServerFor(remoteClient.Node, core.Centralized)
	first := a.sessionFor(remoteClient.ID, srv)
	if want := remoteClient.ID + "|" + srv.Name(); first.ID != want {
		t.Fatalf("session ID %q, want %q", first.ID, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if a.sessionFor(remoteClient.ID, srv) != first {
			t.Error("second lookup made a second session")
		}
	})
	if allocs > 0 {
		t.Errorf("sessionFor on an existing session allocates %.1f objects, want 0", allocs)
	}
}
