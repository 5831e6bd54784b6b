package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/race"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// runWarm runs fn as a simulation process and drives env until all scheduled
// work completes.
func runWarm(env *sim.Env, name string, fn func(p *sim.Proc)) {
	env.Spawn(name, fn)
	env.RunAll()
}

func newDeployment(t *testing.T) *Deployment {
	t.Helper()
	env := sim.NewEnv(11)
	d, err := NewPaperDeployment(env, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPaperDeploymentShape(t *testing.T) {
	d := newDeployment(t)
	if d.Main == nil || d.Main.Name() != simnet.NodeMain {
		t.Fatalf("main = %v", d.Main)
	}
	if len(d.Edges) != 2 {
		t.Fatalf("edges = %d", len(d.Edges))
	}
	if len(d.Servers()) != 3 {
		t.Fatalf("servers = %d", len(d.Servers()))
	}
}

func TestServerForRouting(t *testing.T) {
	d := newDeployment(t)
	// Centralized: everyone talks to main.
	for _, cn := range []string{simnet.NodeClientsMain, simnet.NodeClientsEdge1, simnet.NodeClientsEdge2} {
		if s := d.ServerFor(cn, Centralized); s != d.Main {
			t.Errorf("centralized %s -> %s, want main", cn, s.Name())
		}
	}
	// Distributed: clients use their collocated server.
	if s := d.ServerFor(simnet.NodeClientsEdge1, RemoteFacade); s.Name() != simnet.NodeEdge1 {
		t.Errorf("edge1 clients -> %s", s.Name())
	}
	if s := d.ServerFor(simnet.NodeClientsMain, QueryCaching); s != d.Main {
		t.Errorf("main clients -> %s", s.Name())
	}
	// Unknown client nodes fall back to main.
	if s := d.ServerFor("stranger", AsyncUpdates); s != d.Main {
		t.Errorf("stranger -> %s", s.Name())
	}
	// It runs once per page: an index lookup, no server list built.
	if avg := testing.AllocsPerRun(100, func() { d.ServerFor(simnet.NodeClientsEdge2, RemoteFacade) }); avg != 0 && !race.Enabled {
		t.Errorf("ServerFor allocates %.1f per call, want 0", avg)
	}
}

func TestConfigOrderingAndNames(t *testing.T) {
	if len(Configs) != 5 {
		t.Fatalf("configs = %d", len(Configs))
	}
	// The configurations are cumulative: each adds patterns to the last.
	for i := 1; i < len(Configs); i++ {
		if len(Configs[i].enabled()) != len(Configs[i-1].enabled())+1 {
			t.Fatalf("%s does not extend %s by one pattern", Configs[i], Configs[i-1])
		}
	}
	names := map[Policy]string{
		Centralized:     "centralized",
		RemoteFacade:    "remote-facade",
		StatefulCaching: "stateful-caching",
		QueryCaching:    "query-caching",
		AsyncUpdates:    "async-updates",
		DBReplication:   "db-replication",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%s.String() = %s, want %s", p.Patterns(), p.String(), want)
		}
		if p.Title() == "" || p.Title() == p.Patterns() {
			t.Errorf("%v has no title", p)
		}
		// Partitioning does not rename a pattern set.
		q := p
		q.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: 4}
		if name, ok := q.Name(); !ok || name != want {
			t.Errorf("%s partitioned is named %q", want, name)
		}
	}
	if name, ok := (Policy{ReplicateWeb: true, QueryCaches: true}).Name(); ok {
		t.Errorf("web+queries is named %q; the paper names only the ladder", name)
	}
	if got := (Policy{ReplicateWeb: true, QueryCaches: true}).String(); got != "web+queries" {
		t.Errorf("unnamed String() = %q", got)
	}
}

// TestPolicyValid pins the pattern dependencies and the enumeration the
// planner searches.
func TestPolicyValid(t *testing.T) {
	for _, p := range []Policy{
		{EntityReplicas: true},
		{QueryCaches: true},
		{AsyncUpdates: true},
		{ReplicateWeb: true, AsyncUpdates: true},
		{ReplicateWeb: true, QueryCaches: true},
		{ReplicateWeb: true, QueryCaches: true, AsyncUpdates: true},
		{EntityReplicas: true, QueryCaches: true, AsyncUpdates: true},
		{ReplicateWeb: true, DBReplicas: true},
	} {
		if p.Valid() || p.Validate() == nil {
			t.Errorf("%+v should be invalid", p)
		}
	}
	bad := QueryCaching
	bad.Partition = &container.PartitionSpec{Scheme: container.HashPartition}
	if err := bad.Validate(); !errors.Is(err, ErrPolicy) {
		t.Errorf("zero-partition spec: %v", err)
	}
	sets := PatternSets()
	want := []Policy{
		Centralized, RemoteFacade, StatefulCaching,
		{ReplicateWeb: true, EntityReplicas: true, AsyncUpdates: true}, QueryCaching, AsyncUpdates,
	}
	if !slices.Equal(sets, want) {
		t.Fatalf("pattern sets %v, want %v", sets, want)
	}
	for i, p := range sets {
		if !p.Valid() {
			t.Errorf("invalid pattern set enumerated: %s", p.Patterns())
		}
		if i > 0 && len(p.enabled()) < len(sets[i-1].enabled()) {
			t.Errorf("pattern sets not ordered by pattern count: %s after %s", p.Patterns(), sets[i-1].Patterns())
		}
	}
}

func TestPlanValidateAcceptsFacadeRules(t *testing.T) {
	plan := &Plan{
		App: "petstore",
		Placements: []Placement{
			{Desc: container.Descriptor{Name: "Catalog", Kind: container.StatelessSession, Facade: true}, Servers: []string{"main", "edge1", "edge2"}},
			{Desc: container.Descriptor{Name: "ItemRW", Kind: container.Entity, Table: "item", PKColumn: "id", LocalOnly: true}, Servers: []string{"main"}},
			{Desc: container.Descriptor{Name: "ShoppingCart", Kind: container.StatefulSession, LocalOnly: true}, Servers: []string{"main", "edge1", "edge2"}},
		},
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestPlanValidateRejectsViolations(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"empty plan", Plan{App: "x"}},
		{"unnamed bean", Plan{App: "x", Placements: []Placement{
			{Desc: container.Descriptor{Kind: container.Entity, LocalOnly: true}, Servers: []string{"main"}},
		}}},
		{"remote entity", Plan{App: "x", Placements: []Placement{
			{Desc: container.Descriptor{Name: "E", Kind: container.Entity}, Servers: []string{"main"}},
		}}},
		{"entity facade", Plan{App: "x", Placements: []Placement{
			{Desc: container.Descriptor{Name: "E", Kind: container.Entity, Facade: true, LocalOnly: true}, Servers: []string{"main"}},
		}}},
		{"neither facade nor local", Plan{App: "x", Placements: []Placement{
			{Desc: container.Descriptor{Name: "S", Kind: container.StatelessSession}, Servers: []string{"main"}},
		}}},
		{"both facade and local", Plan{App: "x", Placements: []Placement{
			{Desc: container.Descriptor{Name: "S", Kind: container.StatelessSession, Facade: true, LocalOnly: true}, Servers: []string{"main"}},
		}}},
		{"no servers", Plan{App: "x", Placements: []Placement{
			{Desc: container.Descriptor{Name: "S", Kind: container.StatelessSession, Facade: true}},
		}}},
		{"duplicate", Plan{App: "x", Placements: []Placement{
			{Desc: container.Descriptor{Name: "S", Kind: container.StatelessSession, Facade: true}, Servers: []string{"main"}},
			{Desc: container.Descriptor{Name: "S", Kind: container.StatelessSession, Facade: true}, Servers: []string{"edge1"}},
		}}},
	}
	for _, c := range cases {
		if err := c.plan.Validate(); !errors.Is(err, ErrDesignRule) {
			t.Errorf("%s: err = %v, want ErrDesignRule", c.name, err)
		}
	}
}

// wireFixture sets up a deployment with one RW entity over a seeded table.
func wireFixture(t *testing.T) (*Deployment, *container.RWEntity) {
	t.Helper()
	return itemFixture(t, newDeployment(t))
}

// itemFixture seeds d with an item table and registers its read-write bean.
func itemFixture(t *testing.T, d *Deployment) (*Deployment, *container.RWEntity) {
	t.Helper()
	if _, err := d.DB.Exec(`CREATE TABLE item (id TEXT PRIMARY KEY, qty INT NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DB.Exec(`INSERT INTO item VALUES ('i1', 10), ('i2', 20)`); err != nil {
		t.Fatal(err)
	}
	rw, err := container.DeployRWEntity(d.Main, "ItemRW", "item", "id")
	if err != nil {
		t.Fatal(err)
	}
	d.RegisterRW(rw)
	return d, rw
}

func TestAutoWireSyncPush(t *testing.T) {
	d, rw := wireFixture(t)
	ext := &container.ExtendedDescriptor{
		Replicas: []container.ReplicaSpec{
			{Bean: "ItemRW"},
		},
	}
	w, err := AutoWire(d, ext, WireOptions{}, d.Edges...)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Updaters) != 2 || len(w.Replicas) != 2 {
		t.Fatalf("wiring = %+v", w)
	}
	var writeCost time.Duration
	runWarm(d.Env, "writer", func(p *sim.Proc) {
		start := p.Now()
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), container.State{"qty": sqldb.Int(9)}); err != nil {
			t.Errorf("update: %v", err)
		}
		writeCost = p.Now() - start
	})
	// Sequential blocking pushes to two edges: at least 2 WAN RTTs.
	if writeCost < 400*time.Millisecond {
		t.Fatalf("sync write cost %v, want >= 2 RTT (two sequential edge pushes)", writeCost)
	}
	for _, edge := range d.Edges {
		ro := w.Replica(edge.Name(), "ItemRW")
		if ro == nil {
			t.Fatalf("no replica on %s", edge.Name())
		}
		if got := peekQty(ro, "i1"); got != 9 {
			t.Fatalf("%s holds qty %d, want the pushed 9", edge.Name(), got)
		}
	}
	if got := d.Env.Metrics().CounterValue("container_replica_pushes_total"); got != int64(len(d.Edges)) {
		t.Fatalf("pushes = %d, want one per edge", got)
	}
}

// peekQty returns the qty a replica holds for pk, or -1 when it holds none.
func peekQty(ro *container.ROEntity, pk string) int64 {
	row, ok := ro.Peek(sqldb.Str(pk))
	if !ok {
		return -1
	}
	return row.Get("qty").AsInt()
}

func TestAutoWireAsyncDoesNotBlock(t *testing.T) {
	d, rw := wireFixture(t)
	ext := &container.ExtendedDescriptor{
		Topic: "item-updates",
		Replicas: []container.ReplicaSpec{
			{Bean: "ItemRW", Update: container.Propagation{Async: true}},
		},
	}
	w, err := AutoWire(d, ext, WireOptions{}, d.Edges...)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Subscribers) != 2 {
		t.Fatalf("subscribers = %d", len(w.Subscribers))
	}
	var writeCost time.Duration
	runWarm(d.Env, "writer", func(p *sim.Proc) {
		start := p.Now()
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), container.State{"qty": sqldb.Int(9)}); err != nil {
			t.Errorf("update: %v", err)
		}
		writeCost = p.Now() - start
	})
	if writeCost >= 100*time.Millisecond {
		t.Fatalf("async write cost %v, want < WAN one-way", writeCost)
	}
	// After the env drains, both edge replicas must have the update.
	for _, edge := range d.Edges {
		if got := peekQty(w.Replica(edge.Name(), "ItemRW"), "i1"); got != 9 {
			t.Fatalf("%s holds qty %d, want the pushed 9", edge.Name(), got)
		}
	}
	if got := d.Env.Metrics().CounterValue("container_replica_pushes_total"); got != int64(len(d.Edges)) {
		t.Fatalf("pushes = %d, want one per edge", got)
	}
}

// TestAutoWireOneTopicPusherPerWindow: async specs with different batch
// windows flush on their own windows, and specs with the same window share one
// message per window.
func TestAutoWireOneTopicPusherPerWindow(t *testing.T) {
	d, fast := wireFixture(t)
	beans := map[string]*container.RWEntity{"ItemRW": fast}
	for _, name := range []string{"SlowRW", "AlsoSlowRW"} {
		rw, err := container.DeployRWEntity(d.Main, name, "item", "id")
		if err != nil {
			t.Fatal(err)
		}
		d.RegisterRW(rw)
		beans[name] = rw
	}
	async := func(bean string, window time.Duration) container.ReplicaSpec {
		return container.ReplicaSpec{Bean: bean, Update: container.Propagation{Async: true, Window: window}}
	}
	w, err := AutoWire(d, &container.ExtendedDescriptor{
		Topic: "item-updates",
		Replicas: []container.ReplicaSpec{
			async("ItemRW", 100*time.Millisecond), async("SlowRW", 2*time.Second), async("AlsoSlowRW", 2*time.Second),
		},
	}, WireOptions{}, d.Edges...)
	if err != nil {
		t.Fatal(err)
	}
	edge := d.Edges[0].Name()
	runWarm(d.Env, "writer", func(p *sim.Proc) {
		for _, rw := range beans {
			if _, err := rw.UpdateFields(p, sqldb.Str("i1"), container.State{"qty": sqldb.Int(9)}); err != nil {
				t.Errorf("update: %v", err)
			}
		}
		p.Sleep(time.Second) // past the 100 ms window and the WAN, inside the 2 s one
		if got := peekQty(w.Replica(edge, "ItemRW"), "i1"); got != 9 {
			t.Errorf("100 ms bean: qty %d after 1 s, want the pushed 9", got)
		}
		if got := peekQty(w.Replica(edge, "SlowRW"), "i1"); got != -1 {
			t.Errorf("2 s bean: qty %d after 1 s, want nothing pushed (it must not ride the 100 ms window)", got)
		}
	})
	for bean := range beans {
		if got := peekQty(w.Replica(edge, bean), "i1"); got != 9 {
			t.Errorf("%s: qty %d after the drain, want the pushed 9", bean, got)
		}
	}
	// Two windows flushed once each: the two 2 s beans shared a message.
	if got := d.Env.Metrics().Snapshot().Counter("push_batch_messages_total"); got != 2 {
		t.Errorf("push_batch_messages_total = %d, want 2", got)
	}
}

func TestAutoWireQueryCaches(t *testing.T) {
	d, rw := wireFixture(t)
	ext := &container.ExtendedDescriptor{
		Replicas: []container.ReplicaSpec{
			{Bean: "ItemRW"},
		},
		CachedQueries: []container.CachedQuerySpec{
			{Name: "itemsByQty", InvalidatedBy: []string{"ItemRW"}},
		},
	}
	w, err := AutoWire(d, ext, WireOptions{
		QueryFetchFor: func(server *container.Server) container.QueryFetch {
			return func(p *sim.Proc, key string) (any, error) { return "fresh:" + key, nil }
		},
	}, d.Edges...)
	if err != nil {
		t.Fatal(err)
	}
	edge := d.Edges[0].Name()
	qc := w.Caches[edge]
	if qc == nil {
		t.Fatal("no query cache wired")
	}
	runWarm(d.Env, "reader", func(p *sim.Proc) {
		if _, err := qc.Get(p, "itemsByQty:10"); err != nil {
			t.Errorf("get: %v", err)
		}
		// An ItemRW write must invalidate the cached query.
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), container.State{"qty": sqldb.Int(5)}); err != nil {
			t.Errorf("update: %v", err)
		}
	})
	// Only the first edge's cache is read, so the registry's counts are its.
	reg := d.Env.Metrics()
	if misses := reg.CounterValue("container_querycache_misses_total"); misses != 1 {
		t.Fatalf("misses = %d", misses)
	}
	// The entry must be stale now: another Get refetches.
	runWarm(d.Env, "reader2", func(p *sim.Proc) {
		if _, err := qc.Get(p, "itemsByQty:10"); err != nil {
			t.Errorf("get: %v", err)
		}
	})
	if hits, refreshes := reg.CounterValue("container_querycache_hits_total"), reg.CounterValue("container_querycache_refresh_total"); hits != 0 || refreshes != 1 {
		t.Fatalf("hits = %d, refreshes = %d, want 0 and 1 (entry invalidated)", hits, refreshes)
	}
}

func TestAutoWireErrors(t *testing.T) {
	d, _ := wireFixture(t)
	// Unregistered RW bean.
	_, err := AutoWire(d, &container.ExtendedDescriptor{
		Replicas: []container.ReplicaSpec{{Bean: "Ghost"}},
	}, WireOptions{}, d.Edges...)
	if err == nil {
		t.Fatal("unregistered bean accepted")
	}
	// Invalid descriptor: asynchronous updates without a topic.
	_, err = AutoWire(d, &container.ExtendedDescriptor{
		Replicas: []container.ReplicaSpec{{Bean: "ItemRW", Update: container.Propagation{Async: true}}},
	}, WireOptions{}, d.Edges...)
	if !errors.Is(err, container.ErrBadDescriptor) {
		t.Fatalf("err = %v", err)
	}
}
