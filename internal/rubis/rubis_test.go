package rubis

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/workload"
)

func deployApp(t *testing.T, cfg core.Policy) *App {
	t.Helper()
	return deployOn(t, 9, cfg, simnet.HierarchySpec{}, nil)
}

// runWarm runs fn as a simulation process and drives env until all scheduled
// work completes.
func runWarm(env *sim.Env, name string, fn func(p *sim.Proc)) {
	env.Spawn(name, fn)
	env.RunAll()
}

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
	remoteClient = workload.Client{Node: simnet.NodeClientsEdge2, ID: "c-remote"}
)

// bidderParams builds the parameter sets for one scripted bidder flow.
func bidderParams(u int, item int64) (form, store, cform, cstore map[string]string) {
	nick, pass := Nickname(u), Password(u)
	seller := strconv.FormatInt((item-1)%NumUsers+1, 10)
	it := strconv.FormatInt(item, 10)
	form = map[string]string{"nick": nick, "password": pass, "item": it}
	store = map[string]string{"nick": nick, "password": pass, "item": it, "bid": "999.50"}
	cform = map[string]string{"nick": nick, "password": pass, "to": seller}
	cstore = map[string]string{"nick": nick, "password": pass, "to": seller, "item": it, "rating": "4"}
	return
}

func TestDeployAllConfigs(t *testing.T) {
	for _, cfg := range core.Configs {
		a := deployApp(t, cfg)
		if cfg.EntityReplicas && a.Wiring() == nil {
			t.Errorf("%v: no wiring", cfg)
		}
		a.d.Env.Close()
	}
}

func TestSchemaSeedSizes(t *testing.T) {
	db := sqldb.New()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	for table, want := range map[string]int{
		"regions":    NumRegions,
		"categories": NumCategories,
		"users":      NumUsers,
		"items":      NumItems,
		"bids":       NumItems * SeedBidsPerItem,
		"comments":   SeedComments,
	} {
		res, err := db.Exec(`SELECT * FROM ` + table)
		if err != nil || res.Len() != want {
			t.Errorf("%s rows = %d (%v), want %d", table, res.Len(), err, want)
		}
	}
}

func TestBrowserSessionShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	counts := map[string]int{}
	const sessions = 400
	for i := 0; i < sessions; i++ {
		steps := session(BrowserStream, rng)
		if len(steps) != BrowserSessionLength {
			t.Fatalf("length = %d", len(steps))
		}
		if steps[0].Page != PageMain {
			t.Fatalf("first page = %s", steps[0].Page)
		}
		lastItem := ""
		for _, s := range steps {
			counts[s.Page]++
			switch s.Page {
			case PageItem:
				lastItem = s.Params["item"]
			case PageBids:
				if lastItem != "" && s.Params["item"] != lastItem {
					t.Fatalf("Bids for %s after Item %s", s.Params["item"], lastItem)
				}
			}
		}
	}
	total := sessions * BrowserSessionLength
	itemFrac := float64(counts[PageItem]) / float64(total)
	if itemFrac < 0.33 || itemFrac > 0.5 {
		t.Fatalf("Item fraction = %v, want ~0.425", itemFrac)
	}
	if counts[PageBids] == 0 || counts[PageUserInfo] == 0 {
		t.Fatalf("missing pages: %v", counts)
	}
}

func TestBidderSessionSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	steps := session(BidderStream, rng)
	if len(steps) != len(BidderPages) {
		t.Fatalf("length = %d, want %d", len(steps), len(BidderPages))
	}
	for i, s := range steps {
		if s.Page != BidderPages[i] {
			t.Fatalf("step %d = %s, want %s", i, s.Page, BidderPages[i])
		}
	}
	if steps[3].Params["bid"] == "" || steps[6].Params["rating"] == "" {
		t.Fatal("write steps missing params")
	}
}

func TestCentralizedShapes(t *testing.T) {
	a := deployApp(t, core.Centralized)
	var localMain, remoteMain, localItem time.Duration
	runWarm(a.d.Env, "probe", func(p *sim.Proc) {
		localMain = get(t, a, p, localClient, PageMain, nil)
		remoteMain = get(t, a, p, remoteClient, PageMain, nil)
		localItem = get(t, a, p, localClient, PageItem, map[string]string{"item": "5"})
	})
	if localMain > 60*time.Millisecond {
		t.Fatalf("local Main = %v, want RUBiS-light", localMain)
	}
	delta := remoteMain - localMain
	if delta < 390*time.Millisecond || delta > 440*time.Millisecond {
		t.Fatalf("remote penalty = %v, want ~400ms", delta)
	}
	if localItem > 80*time.Millisecond {
		t.Fatalf("local Item = %v", localItem)
	}
}

func TestRemoteFacadeStaticPagesLocal(t *testing.T) {
	a := deployApp(t, core.RemoteFacade)
	reg := a.d.Env.Metrics()
	runWarm(a.d.Env, "probe", func(p *sim.Proc) {
		// Static pages never touch the EJB tier.
		before := reg.CounterValue("rmi_remote_calls_total")
		mainT := get(t, a, p, remoteClient, PageMain, nil)
		get(t, a, p, remoteClient, PageBrowse, nil)
		get(t, a, p, remoteClient, PagePutBidAuth, nil)
		if got := reg.CounterValue("rmi_remote_calls_total") - before; got != 0 {
			t.Errorf("static pages made %d RMI calls", got)
		}
		if mainT > 60*time.Millisecond {
			t.Errorf("remote Main = %v, want local-like", mainT)
		}
		// Dynamic pages make exactly one wide-area call (after stub warm).
		get(t, a, p, remoteClient, PageCategory, map[string]string{"cat": "1"})
		before = reg.CounterValue("rmi_remote_calls_total")
		catT := get(t, a, p, remoteClient, PageCategory, map[string]string{"cat": "2"})
		if got := reg.CounterValue("rmi_remote_calls_total") - before; got != 1 {
			t.Errorf("Category made %d RMI calls, want 1", got)
		}
		if catT < 250*time.Millisecond || catT > 450*time.Millisecond {
			t.Errorf("remote Category = %v, want ~1 RMI", catT)
		}
	})
}

func TestStatefulCachingItemLocalBidsRemote(t *testing.T) {
	a := deployApp(t, core.StatefulCaching)
	reg := a.d.Env.Metrics()
	runWarm(a.d.Env, "probe", func(p *sim.Proc) {
		before := reg.CounterValue("rmi_remote_calls_total")
		itemT := get(t, a, p, remoteClient, PageItem, map[string]string{"item": "7"})
		if got := reg.CounterValue("rmi_remote_calls_total") - before; got != 0 {
			t.Errorf("Item made %d RMI calls, want 0 (read-only bean)", got)
		}
		if itemT > 80*time.Millisecond {
			t.Errorf("remote Item = %v, want local", itemT)
		}
		// Bids still needs the aggregate query on main.
		get(t, a, p, remoteClient, PageBids, map[string]string{"item": "7"}) // warm stub
		before = reg.CounterValue("rmi_remote_calls_total")
		bidsT := get(t, a, p, remoteClient, PageBids, map[string]string{"item": "8"})
		if got := reg.CounterValue("rmi_remote_calls_total") - before; got != 1 {
			t.Errorf("Bids made %d RMI calls, want 1", got)
		}
		if bidsT < 250*time.Millisecond {
			t.Errorf("remote Bids = %v, want remote", bidsT)
		}
	})
}

func TestQueryCachingAllBrowserPagesLocal(t *testing.T) {
	a := deployApp(t, core.QueryCaching)
	reg := a.d.Env.Metrics()
	runWarm(a.d.Env, "probe", func(p *sim.Proc) {
		before := reg.CounterValue("rmi_remote_calls_total")
		pages := []struct {
			page   string
			params map[string]string
		}{
			{PageAllCategories, nil},
			{PageAllRegions, nil},
			{PageRegion, map[string]string{"region": "3"}},
			{PageCategory, map[string]string{"cat": "4"}},
			{PageCatRegion, map[string]string{"cat": "4", "region": "4"}},
			{PageItem, map[string]string{"item": "11"}},
			{PageBids, map[string]string{"item": "11"}},
			{PageUserInfo, map[string]string{"user": "12"}},
		}
		for _, pg := range pages {
			rt2 := get(t, a, p, remoteClient, pg.page, pg.params)
			if rt2 > 100*time.Millisecond {
				t.Errorf("remote %s = %v, want local (query caching)", pg.page, rt2)
			}
		}
		if got := reg.CounterValue("rmi_remote_calls_total") - before; got != 0 {
			t.Errorf("browser pages made %d RMI calls, want 0", got)
		}
		// The bid form (auth + item) is local too.
		form, _, _, _ := bidderParams(3, 21)
		before = reg.CounterValue("rmi_remote_calls_total")
		formT := get(t, a, p, remoteClient, PagePutBidForm, form)
		if got := reg.CounterValue("rmi_remote_calls_total") - before; got != 0 {
			t.Errorf("PutBidForm made %d RMI calls, want 0", got)
		}
		if formT > 100*time.Millisecond {
			t.Errorf("remote PutBidForm = %v, want local", formT)
		}
	})
}

func TestStoreBidBlocksUnderSyncNotAsync(t *testing.T) {
	storeTime := func(cfg core.Policy) time.Duration {
		a := deployApp(t, cfg)
		var st time.Duration
		runWarm(a.d.Env, "probe", func(p *sim.Proc) {
			form, store, _, _ := bidderParams(2, 30)
			get(t, a, p, localClient, PagePutBidForm, form) // warm stubs
			st = get(t, a, p, localClient, PageStoreBid, store)
		})
		if a.Bids() != 1 {
			t.Fatalf("%v: bids = %d", cfg, a.Bids())
		}
		return st
	}
	facade := storeTime(core.RemoteFacade)
	syncT := storeTime(core.QueryCaching)
	asyncT := storeTime(core.AsyncUpdates)
	if syncT < facade+350*time.Millisecond {
		t.Fatalf("sync StoreBid = %v vs façade %v: blocking push not visible", syncT, facade)
	}
	if asyncT > syncT-300*time.Millisecond {
		t.Fatalf("async StoreBid = %v vs sync %v: async should unblock", asyncT, syncT)
	}
}

func TestBidderFlowUpdatesStateAndCaches(t *testing.T) {
	a := deployApp(t, core.QueryCaching)
	item := int64(33)
	form, store, cform, cstore := bidderParams(7, item)
	runWarm(a.d.Env, "bidder", func(p *sim.Proc) {
		get(t, a, p, remoteClient, PageMain, nil)
		get(t, a, p, remoteClient, PagePutBidAuth, nil)
		get(t, a, p, remoteClient, PagePutBidForm, form)
		get(t, a, p, remoteClient, PageStoreBid, store)
		get(t, a, p, remoteClient, PagePutCommentAuth, nil)
		get(t, a, p, remoteClient, PagePutCommentForm, cform)
		get(t, a, p, remoteClient, PageStoreComment, cstore)
	})
	if a.Bids() != 1 || a.Comments() != 1 {
		t.Fatalf("bids=%d comments=%d", a.Bids(), a.Comments())
	}
	db := a.d.DB
	res, err := db.Exec(`SELECT nb_of_bids, max_bid FROM items WHERE id = ?`, sqldb.Int(item))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != SeedBidsPerItem+1 {
		t.Fatalf("nb_of_bids = %v", res.Rows[0][0])
	}
	if res.Rows[0][1].AsFloat() != 999.50 {
		t.Fatalf("max_bid = %v", res.Rows[0][1])
	}
	// Zero staleness: edge replicas and bid-history caches are fresh.
	for _, edge := range a.d.Edges {
		ro := a.Wiring().Replica(edge.Name(), BeanItem)
		qc := a.Wiring().Caches[edge.Name()]
		runWarm(a.d.Env, "check", func(p *sim.Proc) {
			st, err := ro.Get(p, sqldb.Int(item))
			if err != nil {
				t.Errorf("replica: %v", err)
				return
			}
			if st.Get("nb_of_bids").AsInt() != SeedBidsPerItem+1 {
				t.Errorf("%s replica nb_of_bids = %v", edge.Name(), st.Get("nb_of_bids"))
			}
			v, err := qc.Get(p, keyBidHistory(item))
			if err != nil {
				t.Errorf("cache: %v", err)
				return
			}
			rows, ok := v.(*container.Rows)
			if !ok {
				t.Errorf("%s bid history cache holds %T", edge.Name(), v)
				return
			}
			if rows.Len() != SeedBidsPerItem+1 {
				t.Errorf("%s bid history cache has %d rows, want %d", edge.Name(), rows.Len(), SeedBidsPerItem+1)
				return
			}
			if rows.At(0).Get("bid").AsFloat() != 999.50 {
				t.Errorf("%s cached top bid = %v, want pushed recomputation", edge.Name(), rows.At(0).Get("bid"))
			}
		})
	}
}

func TestBadCredentialsRejected(t *testing.T) {
	a := deployApp(t, core.Centralized)
	runWarm(a.d.Env, "probe", func(p *sim.Proc) {
		_, err := a.RequestFunc()(p, localClient, workload.Step{
			Page:   PagePutBidForm,
			Params: map[string]string{"nick": Nickname(0), "password": "nope", "item": "1"},
		})
		if err == nil {
			t.Error("bad credentials accepted")
		}
	})
}

func TestPaperWorkloadShape(t *testing.T) {
	a := deployApp(t, core.Centralized)
	groups := a.Workload(1)
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	total := 0.0
	for _, g := range groups {
		total += g.Rate()
	}
	if total != 30 {
		t.Fatalf("combined = %v req/s", total)
	}
	a.d.Env.Close()
}

func TestPagesRegistered(t *testing.T) {
	a := deployApp(t, core.RemoteFacade)
	want := len(BrowserPages) + len(BidderPages) - 1 // Main shared
	for _, s := range a.d.Servers() {
		if got := s.Web().Pages(); got != want {
			t.Fatalf("%s pages = %d, want %d", s.Name(), got, want)
		}
	}
}
