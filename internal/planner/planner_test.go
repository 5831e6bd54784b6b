package planner_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/planner"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

// testModel is a deliberately tiny application — one façade serving reads
// from the edge replica of one entity, a read page and a write page — small
// enough that the exact planner output can be pinned by the golden tests.
func testModel() *planner.Model {
	serve := func(*sim.Proc, *container.EdgeMethod, *container.Invocation) (any, error) { return nil, nil }
	read := planner.Call{Bean: "Facade", Method: "get", Body: planner.Load{}}
	write := planner.Call{Method: "save", Body: planner.Seq{
		planner.Load{},
		planner.Update{Bean: "Thing"},
	}}
	return &planner.Model{
		Layout: &planner.Layout{
			App: "demo",
			Components: []planner.Component{
				planner.Facade("Facade", container.StatelessSession, planner.EdgeWithEntityReplicas,
					container.FromReplicas("get", serve, "Thing")),
				planner.Entity("Thing", "things", "id"),
			},
			Replicated: []string{"Thing"},
		},
		Options: core.DefaultOptions(),
		Patterns: []planner.Pattern{
			{Name: "Reader", Visits: map[string]float64{"View": 10}},
			{Name: "Writer", Visits: map[string]float64{"View": 2, "Save": 1}},
		},
		Classes: []planner.Class{
			{Pattern: "Reader", Local: true, Clients: 64},
			{Pattern: "Reader", Local: false, Clients: 128},
			{Pattern: "Writer", Local: true, Clients: 16},
			{Pattern: "Writer", Local: false, Clients: 32},
		},
		Pages: []planner.Page{{Name: "View", Body: read}, {Name: "Save", Body: write}},
		PageCosts: map[string]container.PageCost{
			"View": {CPU: 10 * time.Millisecond, Lat: 50 * time.Millisecond, Page: &web.Response{Bytes: 8 * 1024}},
			"Save": {CPU: 12 * time.Millisecond, Lat: 60 * time.Millisecond, Page: &web.Response{Bytes: 4 * 1024}},
		},
	}
}

func TestCandidatesEnumeratesValidCombinations(t *testing.T) {
	res, err := planner.Search(testModel())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[core.Policy]bool)
	for _, r := range res.Ranked {
		if !r.Policy.Valid() || seen[r.Policy] {
			t.Errorf("ranked %s twice or invalid", r.Policy.Patterns())
		}
		seen[r.Policy] = true
	}
	if len(seen) != len(core.PatternSets()) {
		t.Errorf("ranked %d pattern sets, want every one of %d", len(seen), len(core.PatternSets()))
	}
}

func TestCandidateConfigMapsPaperLadder(t *testing.T) {
	want := map[string]core.Policy{
		"none":                       core.Centralized,
		"web":                        core.RemoteFacade,
		"web+entities":               core.StatefulCaching,
		"web+entities+queries":       core.QueryCaching,
		"web+entities+queries+async": core.AsyncUpdates,
	}
	mapped := 0
	for _, c := range core.PatternSets() {
		name, ok := c.Name()
		wantCfg, isPaper := want[c.Patterns()]
		if ok != isPaper {
			t.Errorf("%s: Name() ok=%v, want %v", c.Patterns(), ok, isPaper)
			continue
		}
		if ok {
			mapped++
			if c != wantCfg || name != wantCfg.String() {
				t.Errorf("%s: named %s, want %s", c.Patterns(), name, wantCfg)
			}
		}
	}
	if mapped != len(core.Configs) {
		t.Errorf("%d pattern sets map to paper configs, want %d", mapped, len(core.Configs))
	}
}

func TestCandidateDependenciesRejected(t *testing.T) {
	res, err := planner.Search(testModel())
	if err != nil {
		t.Fatal(err)
	}
	ranked := make(map[core.Policy]bool)
	for _, r := range res.Ranked {
		ranked[r.Policy] = true
	}
	for _, c := range []core.Policy{
		{EntityReplicas: true},
		{QueryCaches: true},
		{AsyncUpdates: true},
		{ReplicateWeb: true, AsyncUpdates: true},
		{ReplicateWeb: true, QueryCaches: true},
		{ReplicateWeb: true, QueryCaches: true, AsyncUpdates: true},
	} {
		if ranked[c] {
			t.Errorf("%s breaks a pattern dependency but was ranked", c.Patterns())
		}
	}
	// Every rung of the greedy ladder is a valid pattern set.
	var p core.Policy
	for _, s := range res.Ladder {
		if p = s.Feature.With(p); !p.Valid() {
			t.Errorf("ladder steps through invalid %s", p.Patterns())
		}
	}
}

func TestSearchRanksCacheConfigsAboveCentralized(t *testing.T) {
	res, err := planner.Search(testModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) != 6 {
		t.Fatalf("ranked %d candidates, want 6", len(res.Ranked))
	}
	for i := 1; i < len(res.Ranked); i++ {
		if res.Ranked[i].Overall < res.Ranked[i-1].Overall {
			t.Errorf("ranking not ascending at %d: %v after %v",
				i, res.Ranked[i].Overall, res.Ranked[i-1].Overall)
		}
	}
	best := res.Best()
	if !best.Policy.ReplicateWeb || !best.Policy.EntityReplicas {
		t.Errorf("best pattern set %s lacks the entity replicas the read-heavy mix favors", best.Policy.Patterns())
	}
	var centralized planner.Ranked
	for _, r := range res.Ranked {
		if r.Policy == core.Centralized {
			centralized = r
		}
	}
	if best.Overall >= centralized.Overall {
		t.Errorf("best %v not better than centralized %v", best.Overall, centralized.Overall)
	}
	if res.Base != centralized.Overall {
		t.Errorf("Base %v != centralized overall %v", res.Base, centralized.Overall)
	}
}

// TestSearchRejectsUndeclaredEdgeMethod: a façade that declares its edge
// methods prices only those; a call from an edge to any other is an error
// naming it, not a guess.
func TestSearchRejectsUndeclaredEdgeMethod(t *testing.T) {
	m := testModel()
	m.Pages[0].Body = planner.Call{Bean: "Facade", Method: "list", Body: planner.Load{}}
	if _, err := planner.Search(m); err == nil || !strings.Contains(err.Error(), "Facade.list") {
		t.Fatalf("Search = %v, want an error naming Facade.list", err)
	}
}

// TestEdgeMethodsPricedByKind: an edge call costs what its declared method
// serves it from — a FromCache method one hit, a FromReplicas method a hit
// per bean plus one for a query its handler reads, a Delegate or FromEdgeDB
// method a WAN call of main's body — and without query caches a cached
// method delegates.
func TestEdgeMethodsPricedByKind(t *testing.T) {
	serve := func(*sim.Proc, *container.EdgeMethod, *container.Invocation) (any, error) { return nil, nil }
	key := func([]sqldb.Value) string { return "q:" }
	m := testModel()
	m.Components[0] = planner.Facade("Facade", container.StatelessSession, planner.EdgeWithEntityReplicas,
		container.FromCache("cached", "q", key),
		container.FromReplicas("replica", serve, "Thing"),
		container.FromReplicas("form", serve, "Thing").Reads("q", key),
		container.Delegate("delegate"),
		container.FromEdgeDB("db", "SELECT * FROM thing", nil))
	ev := planner.NewEvaluator(m)
	cost := func(p core.Policy, method string) time.Duration {
		page := planner.Page{Name: method, Body: planner.Call{Bean: "Facade", Method: method, Body: planner.SQL{Scan: 100, Out: 10}}}
		return ev.PageCost(p, &page, false)
	}
	q := core.QueryCaching
	if hit := container.CacheHitCPU; cost(q, "cached") != cost(q, "replica") || cost(q, "form") != cost(q, "replica")+hit {
		t.Errorf("cached %v, replica %v, form %v: want one hit, one hit, two hits", cost(q, "cached"), cost(q, "replica"), cost(q, "form"))
	}
	if db := core.DBReplication; cost(db, "db") != cost(q, "delegate") || cost(q, "delegate") <= cost(q, "cached")+m.Params().WANOneWay {
		t.Errorf("delegate %v, db %v: want the same WAN call, above a hit %v", cost(q, "delegate"), cost(db, "db"), cost(q, "cached"))
	}
	if s := core.StatefulCaching; cost(s, "cached") != cost(s, "delegate") {
		t.Errorf("without query caches a cached method costs %v, want a delegate's %v", cost(s, "cached"), cost(s, "delegate"))
	}
}

func TestSearchIsDeterministic(t *testing.T) {
	a, err := planner.Search(testModel())
	if err != nil {
		t.Fatal(err)
	}
	b, err := planner.Search(testModel())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := planner.FormatResult(a, nil), planner.FormatResult(b, nil); got != want {
		t.Errorf("two searches over the same model differ:\n%s\nvs\n%s", got, want)
	}
}

func TestPlanForSynthesizesWiringComponents(t *testing.T) {
	m := testModel()
	pl := m.PlanFor(core.AsyncUpdates)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	servers := make(map[string][]string)
	for _, p := range pl.Placements {
		servers[p.Desc.Name] = p.Servers
	}
	all := m.Options.Topology.ServerNodes()
	edges := all[1:]
	for _, name := range []string{"ThingRO", core.UpdaterBean, core.SubscriberBean} {
		got, ok := servers[name]
		if !ok {
			t.Errorf("plan lacks wiring component %s", name)
			continue
		}
		if !reflect.DeepEqual(got, edges) {
			t.Errorf("%s on %v, want edges %v", name, got, edges)
		}
	}
	if got := servers["Thing"]; len(got) != 1 || got[0] != simnet.NodeMain {
		t.Errorf("entity Thing on %v, want [%s]", got, simnet.NodeMain)
	}
	if got := servers["Facade"]; !reflect.DeepEqual(got, all) {
		t.Errorf("cached façade on %v, want all servers", got)
	}

	pl = m.PlanFor(core.Centralized)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pl.Placements {
		if len(p.Servers) != 1 || p.Servers[0] != simnet.NodeMain {
			t.Errorf("centralized plan places %s on %v", p.Desc.Name, p.Servers)
		}
	}
}

func TestWithObservedVisits(t *testing.T) {
	m := &planner.Model{Patterns: []planner.Pattern{
		{Name: "Browser", Visits: map[string]float64{"Main": 2, "Product": 6}},
		{Name: "Buyer", Visits: map[string]float64{"Cart": 1}},
	}}
	got := m.WithObservedVisits(map[string]map[string]float64{
		"Browser": {"Main": 0.75, "Product": 0.25},
	})
	// The Browser total (8 visits/session) is preserved, redistributed 3:1.
	bv := got.Patterns[0].Visits
	if bv["Main"] != 6 || bv["Product"] != 2 {
		t.Errorf("Browser visits = %v, want Main:6 Product:2", bv)
	}
	// Patterns without observations keep their modeled weights.
	if got.Patterns[1].Visits["Cart"] != 1 {
		t.Errorf("Buyer visits perturbed: %v", got.Patterns[1].Visits)
	}
	// The receiver is untouched, and no shares leave the model as it is.
	if m.Patterns[0].Visits["Main"] != 2 {
		t.Errorf("original model mutated: %v", m.Patterns[0].Visits)
	}
	if m.WithObservedVisits(nil) != m {
		t.Error("empty shares returned a copy")
	}
}

func TestWithObservedVisitsUnknownPagesKept(t *testing.T) {
	m := &planner.Model{Patterns: []planner.Pattern{
		{Name: "Browser", Visits: map[string]float64{"Main": 4, "Search": 4}},
	}}
	// Sampling only saw Main; Search keeps its modeled weight.
	got := m.WithObservedVisits(map[string]map[string]float64{"Browser": {"Main": 1.0}})
	bv := got.Patterns[0].Visits
	if bv["Main"] != 8 || bv["Search"] != 4 {
		t.Errorf("visits = %v, want Main:8 Search:4", bv)
	}
}

func TestWithObservedVisitsSearchSmoke(t *testing.T) {
	m := testModel()
	adapted := m.WithObservedVisits(map[string]map[string]float64{
		"Reader": {"View": 1.0},
	})
	if _, err := planner.Search(adapted); err != nil {
		t.Fatalf("Search over adapted model: %v", err)
	}
}

// TestModelReadsTopologySpec: the node set and the WAN constants come from
// the deployment options' topology, not from a fixed star — the zero spec is
// the paper's testbed, any other spec is planned over its own edges.
func TestModelReadsTopologySpec(t *testing.T) {
	m := testModel()
	p := m.Params()
	if p.Edges != 2 || p.WANOneWay != simnet.WANOneWay || p.LANOneWay != simnet.LANOneWay ||
		p.WANBps != simnet.WANBps || p.LANBps != simnet.LANBps {
		t.Errorf("zero topology: %d edges, WAN %v at %v B/s, LAN %v at %v B/s; want the paper's testbed",
			p.Edges, p.WANOneWay, p.WANBps, p.LANOneWay, p.LANBps)
	}

	m.Options.Topology = simnet.HierarchySpec{Edges: 3}
	p = m.Params()
	spec := m.Options.Topology.WithDefaults()
	if p.Edges != 3 || p.WANOneWay != spec.Backbone.OneWay+spec.Metro.OneWay || p.WANBps != spec.Metro.Bps {
		t.Errorf("3-edge hierarchy: %d edges, WAN %v at %v B/s", p.Edges, p.WANOneWay, p.WANBps)
	}
	pl := m.PlanFor(core.StatefulCaching)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []string{simnet.EdgeName(0), simnet.EdgeName(1), simnet.EdgeName(2)}
	for _, pm := range pl.Placements {
		if pm.Desc.Name == "ThingRO" && !reflect.DeepEqual(pm.Servers, want) {
			t.Errorf("replicas on %v, want %v", pm.Servers, want)
		}
	}
}

// TestLayoutCheck: a layout deploys a valid policy and refuses a broken one,
// and it deploys DB replicas only once an edge method it places reads them.
func TestLayoutCheck(t *testing.T) {
	l := testModel().Layout
	if err := l.Check(core.AsyncUpdates); err != nil {
		t.Errorf("Check(%s) = %v", core.AsyncUpdates, err)
	}
	for _, p := range []core.Policy{{ReplicateWeb: true, DBReplicas: true}, core.DBReplication} {
		if err := l.Check(p); !errors.Is(err, core.ErrPolicy) || !strings.Contains(err.Error(), p.String()) {
			t.Errorf("Check(%s) = %v, want a policy error naming it", p, err)
		}
	}
	l.Components[0].Edge = append(l.Components[0].Edge, container.FromEdgeDB("find", "SELECT * FROM things", nil))
	if err := l.Check(core.DBReplication); err != nil {
		t.Errorf("Check(%s) with an edge DB read = %v", core.DBReplication, err)
	}
}
