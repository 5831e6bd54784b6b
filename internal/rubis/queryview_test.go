package rubis

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/faults"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// deployOn deploys RUBiS under cfg on topology spec with a propagation
// override (nil keeps the descriptor's own).
func deployOn(t *testing.T, seed int64, cfg core.Policy, spec simnet.HierarchySpec, update *container.Propagation) *App {
	t.Helper()
	opts := DeployOptions()
	opts.Propagation = update
	d, _, err := core.NewHierarchicalDeployment(sim.NewEnv(seed), opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Deploy(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// preloadedQueryKeys is what preload puts in every edge cache: the two
// static lists, a category list per region, an item list per category and per
// (category, region), a bid history per item, and two entries per user.
const preloadedQueryKeys = 2 + NumRegions + NumCategories + NumCategories*NumRegions + NumItems + 2*NumUsers

// TestDeltaModeKeepsQueryCachesFresh: with delta pushes the update on the
// wire holds only the changed fields, so the keys and the full rows must come
// from the main server's commit-time state. Before the views a delta left
// itemsByCategory stale, created keys for category 0, region 0 and the empty
// nickname, and overwrote userInfo's User with the lone rating field.
func TestDeltaModeKeepsQueryCachesFresh(t *testing.T) {
	for name, update := range map[string]*container.Propagation{
		"sync-delta":    {Delta: true},
		"async-batched": {Async: true, Window: 250 * time.Millisecond, Delta: true},
	} {
		update := update
		t.Run(name, func(t *testing.T) {
			a := deployOn(t, 9, core.AsyncUpdates, simnet.HierarchySpec{}, update)
			env := a.d.Env
			defer env.Close()
			const item, seller = int64(33), int64(33)
			_, store, _, cstore := bidderParams(7, item)
			runWarm(env, "bidder", func(p *sim.Proc) {
				get(t, a, p, remoteClient, PageStoreBid, store)
				get(t, a, p, remoteClient, PageStoreComment, cstore)
			})
			wantUser, err := runDirect(a.d.DB, qUser(seller))
			if err != nil || wantUser.Len() != 1 || wantUser.At(0).Len() != 7 {
				t.Fatalf("seller row = %v (%v)", wantUser, err)
			}
			cat := (item-1)%NumCategories + 1
			for _, edge := range a.d.Edges {
				qc := a.wiring.Caches[edge.Name()]
				if qc.Size() != preloadedQueryKeys {
					t.Errorf("%s cache holds %d keys, want the %d preloaded ones", edge.Name(), qc.Size(), preloadedQueryKeys)
				}
				runWarm(env, "check", func(p *sim.Proc) {
					v, err := qc.Get(p, keyItemsByCategory(cat))
					if err != nil {
						t.Errorf("%s: %v", edge.Name(), err)
						return
					}
					var row container.Row
					for rows, i := v.(*container.Rows), 0; i < rows.Len(); i++ {
						if r := rows.At(i); r.Get("id").AsInt() == item {
							row = r
						}
					}
					if row.Get("nb_of_bids").AsInt() != SeedBidsPerItem+1 || row.Get("max_bid").AsFloat() != 999.50 {
						t.Errorf("%s list row of item %d = %v, want the 999.50 bid", edge.Name(), item, row)
					}
					v, err = qc.Get(p, keyUserInfo(seller))
					if err != nil {
						t.Errorf("%s: %v", edge.Name(), err)
						return
					}
					if page := v.(*UserInfoPage); !reflect.DeepEqual(page.User, wantUser.At(0)) {
						t.Errorf("%s userInfo.User = %v, want all seven columns %v", edge.Name(), page.User, wantUser.At(0))
					}
					v, err = qc.Get(p, keyUserByNick(Nickname(int(seller-1))))
					if err != nil || !reflect.DeepEqual(v, &wantUser) {
						t.Errorf("%s userByNick = %v (%v), want %v", edge.Name(), v, err, wantUser)
					}
				})
			}
		})
	}
}

// viewProbe is a propagator prepended to the replicated beans: it runs inside
// every commit, right after the view hook, and holds each query the entity
// feeds to the invariant view ≡ fresh execution (row order included). A
// write's SQL statement runs a database service time before its commit point,
// and until then the database is one row ahead of the views, so the probe
// compares only when no other write is between the two.
type viewProbe struct {
	t       *testing.T
	a       *App
	pending int // writes started and not yet committed
	commits int
	checked int
}

func (vp *viewProbe) Propagate(_ *sim.Proc, updates []container.Update) error {
	for _, u := range updates {
		vp.commits++
		if vp.pending--; vp.pending > 0 {
			continue
		}
		vp.checked++
		id := u.PK.AsInt()
		switch u.Bean {
		case BeanItem:
			vp.checkItem(id)
		case BeanUser:
			vp.checkUser(id)
		}
	}
	return nil
}

func (vp *viewProbe) fresh(q query) *container.Rows { return freshRows(vp.t, vp.a, q) }

// freshRows executes q against the database at no simulated cost, as the
// *container.Rows a view holds. It may run on a process goroutine, so a
// failure is an Error, not a Fatal.
func freshRows(t *testing.T, a *App, q query) *container.Rows {
	t.Helper()
	rows, err := runDirect(a.d.DB, q)
	if err != nil {
		t.Errorf("fresh query: %v", err)
	}
	return &rows
}

func (vp *viewProbe) check(key string, want any) {
	got, ok := vp.a.wiring.QueryViews().Result(key)
	if !ok {
		vp.t.Errorf("%s: no view", key)
	} else if !reflect.DeepEqual(got, want) {
		vp.t.Errorf("%s: view differs from a fresh execution\n view  %v\n fresh %v", key, got, want)
	}
}

func (vp *viewProbe) checkItem(id int64) {
	st := vp.fresh(newQuery(`SELECT category, region FROM items WHERE id = ?`, sqldb.Int(id)))
	if st.Len() != 1 {
		vp.t.Errorf("item %d: %d rows", id, st.Len())
		return
	}
	cat, region := st.At(0).Get("category").AsInt(), st.At(0).Get("region").AsInt()
	vp.check(keyBidHistory(id), vp.fresh(qBidHistory(id)))
	vp.check(keyItemsByCategory(cat), vp.fresh(qItemsByCategory(cat)))
	vp.check(keyItemsByCatRegion(cat, region), vp.fresh(qItemsByCatRegion(cat, region)))
	vp.check(keyRegionCategories(region), vp.fresh(qRegionCategories(region)))
}

func (vp *viewProbe) checkUser(id int64) {
	rows := vp.fresh(qUser(id))
	if rows.Len() != 1 {
		vp.t.Errorf("user %d: %d rows", id, rows.Len())
		return
	}
	vp.check(keyUserInfo(id), &UserInfoPage{User: rows.At(0), Comments: *vp.fresh(qUserComments(id))})
	vp.check(keyUserByNick(rows.At(0).Get("nickname").AsString()), rows)
}

// TestQueryViewMaintainedEqualsRequeried is the view ≡ query invariant as a
// property over seeded write histories: interleaved bids, comments and item
// inserts from concurrent writers — equal bid amounts, bids below max_bid,
// and a category grown past the listing LIMIT — under sync, async and batched
// delta propagation, with a WAN partition in the second half. Inside every
// commit each view the entity feeds equals a fresh execution of its query; at
// quiescence (after replaying the second half's commits, coalesced, over what
// the partition dropped — the replay a controller resync performs) every edge
// cache entry is the view's value and every view is fresh.
func TestQueryViewMaintainedEqualsRequeried(t *testing.T) {
	modes := []struct {
		name   string
		update container.Propagation
	}{
		{"sync", container.Propagation{}},
		{"async", container.Propagation{Async: true}},
		{"async-batched", container.Propagation{Async: true, Window: 250 * time.Millisecond, Delta: true}},
	}
	const (
		calm       = 10 * time.Second // phase 1 ends: no fault so far
		outageAt   = 12 * time.Second
		outageLen  = 4 * time.Second
		maxInserts = 12
	)
	for _, mode := range modes {
		for _, seed := range []int64{3, 17, 42} {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s/seed%d", mode.name, seed), func(t *testing.T) {
				a := deployOn(t, seed, core.AsyncUpdates, simnet.HierarchySpec{}, &mode.update)
				d := a.d
				env := d.Env
				defer env.Close()
				probe := &viewProbe{t: t, a: a}
				a.itemRW.PrependPropagator(probe)
				a.userRW.PrependPropagator(probe)
				if err := faults.Arm(d.Net, &faults.Schedule{Name: "midrun", Events: []faults.Event{
					{Kind: faults.LinkDown, A: simnet.NodeEdge1, B: simnet.NodeRouter, At: outageAt, Duration: outageLen},
				}}, seed); err != nil {
					t.Fatal(err)
				}

				nextItem := int64(NumItems)
				inserts, failed := 0, 0
				writer := func(w int, from, until time.Duration) {
					rng := rand.New(rand.NewSource(seed*31 + int64(w)))
					env.SpawnAt(from, fmt.Sprintf("writer-%d", w), func(p *sim.Proc) {
						for p.Now() < until {
							u := rng.Intn(NumUsers)
							var err error
							probe.pending++ // every write below commits one replicated bean once
							switch op := rng.Intn(10); {
							case op == 0 && inserts < maxInserts:
								// Category 1 starts with 20 items: the inserts
								// push it past LIMIT 25, some ahead of the
								// seeded rows in end_date order, some behind.
								inserts++
								nextItem++
								err = a.itemRW.Insert(p, newItem(nextItem, 1, int64(rng.Intn(3)+1), int64(rng.Intn(2))*7*24*3600*1000))
							case op < 7:
								item := int64(rng.Intn(int(nextItem))) + 1
								if rng.Intn(3) == 0 {
									item = int64(rng.Intn(int(nextItem)/NumCategories))*NumCategories + 1 // category 1
								}
								// Five amounts: ties are common and most fall
								// below the item's max_bid.
								amount := float64(10 * (1 + rng.Intn(5)))
								_, err = a.storeBid(p, Nickname(u), Password(u), item, amount)
							default:
								_, err = a.storeComment(p, Nickname(u), Password(u), int64(rng.Intn(NumUsers))+1, int64(rng.Intn(NumItems))+1, int64(rng.Intn(5))+1)
							}
							if err != nil {
								// Only a blocking push into the partition may
								// fail a write, after it committed.
								down := p.Now() >= outageAt && p.Now() <= outageAt+outageLen+time.Second
								if failed++; mode.name != "sync" || !down {
									t.Errorf("write at %v: %v", p.Now(), err)
								}
							}
							p.Sleep(time.Duration(rng.Intn(200)) * time.Millisecond)
						}
					})
				}
				for w := 0; w < 3; w++ {
					writer(w, 0, calm-3*time.Second)
					writer(3+w, calm+1500*time.Millisecond, outageAt+outageLen+2*time.Second)
				}

				// Phase 1: the live propagation path alone delivered everything.
				env.Run(calm)
				checkEdgesHoldViews(t, a, nextItem)
				buf := container.NewUpdateBuffer()
				a.itemRW.PrependPropagator(buf)
				a.userRW.PrependPropagator(buf)

				// Phase 2: the partition drops pushes to edge1; replaying
				// the buffered commits (ApplyLocal, coalesced) closes the hole.
				env.RunAll()
				ups := container.CoalesceUpdates(buf.Drain())
				for _, edge := range d.Edges {
					a.wiring.Updaters[edge.Name()].ApplyLocal(ups)
				}
				checkEdgesHoldViews(t, a, nextItem)

				reg := env.Metrics()
				maintained := reg.CounterValue("container_queryview_maintained_total")
				requeries := reg.CounterValue("container_queryview_requeries_total")
				t.Logf("%d commits (%d probed), %d inserts, %d maintained, %d re-queried, %d writes failed by the partition",
					probe.commits, probe.checked, inserts, maintained, requeries, failed)
				if probe.commits < 40 || probe.checked < probe.commits/3 || inserts < 6 || maintained == 0 || requeries == 0 {
					t.Errorf("history too thin: %d commits (%d checked), %d inserts, %d maintained, %d re-queried",
						probe.commits, probe.checked, inserts, maintained, requeries)
				}
			})
		}
	}
}

func newItem(id, cat, region, endDate int64) container.State {
	return container.State{
		"id": sqldb.Int(id), "name": sqldb.Str(fmt.Sprintf("Item-%03d", id)), "description": sqldb.Str("late lot"),
		"quantity": sqldb.Int(1), "initial_price": sqldb.Float(5), "reserve_price": sqldb.Float(6),
		"buy_now": sqldb.Float(10), "nb_of_bids": sqldb.Int(0), "max_bid": sqldb.Float(0),
		"start_date": sqldb.Int(0), "end_date": sqldb.Int(endDate), "seller": sqldb.Int(1),
		"category": sqldb.Int(cat), "region": sqldb.Int(region),
	}
}

// checkEdgesHoldViews asserts, over every key of every push-refreshed query,
// that the view equals a fresh execution and that each edge cache holds the
// view's value.
func checkEdgesHoldViews(t *testing.T, a *App, lastItem int64) {
	t.Helper()
	views := a.wiring.QueryViews()
	fresh := func(q query) *container.Rows { return freshRows(t, a, q) }
	want := map[string]any{}
	for r := int64(1); r <= NumRegions; r++ {
		want[keyRegionCategories(r)] = fresh(qRegionCategories(r))
	}
	for c := int64(1); c <= NumCategories; c++ {
		want[keyItemsByCategory(c)] = fresh(qItemsByCategory(c))
		for r := int64(1); r <= NumRegions; r++ {
			want[keyItemsByCatRegion(c, r)] = fresh(qItemsByCatRegion(c, r))
		}
	}
	for i := int64(1); i <= lastItem; i++ {
		want[keyBidHistory(i)] = fresh(qBidHistory(i))
	}
	for users, i := fresh(newQuery(`SELECT * FROM users`)), 0; i < users.Len(); i++ {
		u := users.At(i)
		id := u.Get("id").AsInt()
		want[keyUserInfo(id)] = &UserInfoPage{User: u, Comments: *fresh(qUserComments(id))}
		want[keyUserByNick(u.Get("nickname").AsString())] = oneRow(u)
	}
	stale := 0
	for key, w := range want {
		if got, ok := views.Result(key); !ok || !reflect.DeepEqual(got, w) {
			if stale++; stale <= 3 {
				t.Errorf("%s: view differs from a fresh execution\n view  %v\n fresh %v", key, got, w)
			}
		}
	}
	for _, edge := range a.d.Edges {
		qc := a.wiring.Caches[edge.Name()]
		if size := qc.Size(); size != len(want)+2 {
			t.Errorf("%s cache holds %d keys, want %d", edge.Name(), size, len(want)+2)
		}
		checked := false
		a.d.Env.Spawn("check-"+edge.Name(), func(p *sim.Proc) {
			behind := 0
			for key := range want {
				got, err := qc.Get(p, key)
				view, _ := views.Result(key)
				if err != nil || !reflect.DeepEqual(got, view) {
					if behind++; behind <= 3 {
						t.Errorf("%s %s: edge holds %v (%v), view is %v", edge.Name(), key, got, err, view)
					}
				}
			}
			checked = true
		})
		a.d.Env.Run(a.d.Env.Now() + 500*time.Millisecond)
		if !checked {
			t.Fatalf("%s: cache check did not finish", edge.Name())
		}
	}
}

// TestQueryViewRefreshCostIndependentOfEdges: the refresh runs once, on the
// main server, and a bid on a preloaded item is maintained without SQL, so it
// costs the same five statements (authenticate, load, insert, load, update)
// on the paper's 2-edge star and on an 8-edge hierarchy.
func TestQueryViewRefreshCostIndependentOfEdges(t *testing.T) {
	stmts := func(spec simnet.HierarchySpec) (int64, int64) {
		a := deployOn(t, 9, core.AsyncUpdates, spec, nil)
		env := a.d.Env
		defer env.Close()
		reg := env.Metrics()
		before, installs := reg.CounterValue("sqldb_statements_total"), reg.CounterValue("container_querycache_pushed_total")
		runWarm(env, "bidder", func(p *sim.Proc) {
			if _, err := a.storeBid(p, Nickname(7), Password(7), 33, 999.50); err != nil {
				t.Errorf("storeBid: %v", err)
			}
		})
		if got, want := reg.CounterValue("container_querycache_pushed_total")-installs, int64(3*len(a.d.Edges)); got != want {
			t.Errorf("%d edges took %d installs, want 3 each", len(a.d.Edges), got)
		}
		return reg.CounterValue("sqldb_statements_total") - before, reg.CounterValue("container_queryview_requeries_total")
	}
	star, starRequeries := stmts(simnet.HierarchySpec{})
	wide, wideRequeries := stmts(simnet.DefaultHierarchySpec(8))
	if star != 5 || wide != 5 || starRequeries != 0 || wideRequeries != 0 {
		t.Fatalf("one bid: %d statements (%d re-queries) on 2 edges, %d (%d) on 8; want 5 and no re-query on both",
			star, starRequeries, wide, wideRequeries)
	}
}

func TestKeyItemsByCatRegionNoAllocs(t *testing.T) {
	if got := keyItemsByCatRegion(3, 17); got != "itemsByCatRegion:3/17" {
		t.Fatalf("key = %q", got)
	}
	if got := keyItemsByCatRegion(0, 21); got != "itemsByCatRegion:0/21" {
		t.Fatalf("out-of-table key = %q", got)
	}
	var sink string
	allocs := testing.AllocsPerRun(100, func() {
		for c := int64(1); c <= NumCategories; c++ {
			sink = keyItemsByCatRegion(c, NumRegions+1-c)
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("keyItemsByCatRegion allocates %.0f times per %d keys, want 0", allocs, NumCategories)
	}
}

// TestQueryViewMaintainedItemCommitAllocs: a bid's two listing refreshes copy
// one page and build one row each; a re-execution costs hundreds.
func TestQueryViewMaintainedItemCommitAllocs(t *testing.T) {
	a := deployApp(t, core.QueryCaching)
	defer a.d.Env.Close()
	const item = int64(33)
	prev, err := runDirect(a.d.DB, newQuery(`SELECT * FROM items WHERE id = ?`, sqldb.Int(item)))
	if err != nil || prev.Len() != 1 {
		t.Fatalf("item row = %v (%v)", prev, err)
	}
	state := prev.At(0).With(container.RowOf(&[]string{"nb_of_bids", "max_bid"}, []sqldb.Value{sqldb.Int(4), sqldb.Float(999.50)}))
	c := container.Commit{Bean: BeanItem, PK: sqldb.Int(item), State: state, Prev: prev.At(0)}
	views := a.wiring.QueryViews()
	for _, q := range a.cachedQueries() {
		if q.Name != QueryItemsByCategory && q.Name != QueryItemsByCatRegion {
			continue
		}
		before, ok := views.Result(q.View.Key(c))
		if !ok {
			t.Fatalf("%s: no seeded view", q.Name)
		}
		var next any
		allocs := testing.AllocsPerRun(100, func() {
			if next, ok = q.View.Maintain(before, c); !ok {
				t.Fatalf("%s: a bid was not maintained", q.Name)
			}
		})
		if allocs > 6 {
			t.Errorf("%s: maintaining a bid allocates %.0f times, want at most 6", q.Name, allocs)
		}
		rows, was := next.(*container.Rows), before.(*container.Rows)
		if rows.Len() != was.Len() {
			t.Fatalf("%s: page went from %d to %d rows", q.Name, was.Len(), rows.Len())
		}
		for i := range rows.Len() {
			if row, was := rows.At(i), was.At(i); row.Get("id").AsInt() != item {
				if !reflect.DeepEqual(row, was) {
					t.Errorf("%s row %d changed: %v -> %v", q.Name, i, was, row)
				}
			} else if row.Get("max_bid").AsFloat() != 999.50 || was.Get("max_bid").AsFloat() == 999.50 {
				t.Errorf("%s: row %v from %v: want a fresh row and the previous page untouched", q.Name, row, was)
			}
		}
	}
}

// TestInternedQueryKeys: every interned cache key equals the key formatted
// from its id over the table's full range, the ids just outside a table
// still format, and an interned key costs no allocation.
func TestInternedQueryKeys(t *testing.T) {
	for _, k := range []struct {
		prefix string
		ids    int64
		key    func(int64) string
	}{
		{QueryRegionCategories, NumRegions, keyRegionCategories},
		{QueryItemsByCategory, NumCategories, keyItemsByCategory},
		{QueryBidHistory, NumItems, keyBidHistory},
		{QueryUserInfo, NumUsers, keyUserInfo},
	} {
		for id := int64(-1); id <= k.ids+1; id++ {
			if got, want := k.key(id), k.prefix+":"+strconv.FormatInt(id, 10); got != want {
				t.Errorf("key of %d = %q, want %q", id, got, want)
			}
		}
	}
	for u := -1; u <= NumUsers; u++ {
		if got, want := keyUserByNick(Nickname(u)), QueryUserByNick+":"+Nickname(u); got != want {
			t.Errorf("key of user %d = %q, want %q", u, got, want)
		}
	}
	for _, nick := range []string{"", "bidder", "bidder1", "bidder+01", "bidder0001", "Bidder001", "bidder001 "} {
		if got, want := keyUserByNick(nick), QueryUserByNick+":"+nick; got != want {
			t.Errorf("key of nickname %q = %q, want %q", nick, got, want)
		}
	}
	var sink string
	allocs := testing.AllocsPerRun(100, func() {
		sink = keyRegionCategories(NumRegions)
		sink = keyItemsByCategory(1)
		sink = keyBidHistory(NumItems)
		sink = keyUserInfo(7)
		sink = keyUserByNick(Nickname(NumUsers - 1))
	})
	_ = sink
	if allocs != 0 {
		t.Errorf("five interned keys allocate %.0f times, want 0", allocs)
	}
}
