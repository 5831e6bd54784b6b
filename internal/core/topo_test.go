package core

import (
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

func newHierDeployment(t *testing.T, spec simnet.HierarchySpec) (*Deployment, *simnet.Hierarchy) {
	t.Helper()
	env := sim.NewEnv(11)
	d, h, err := NewHierarchicalDeployment(env, DefaultOptions(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return d, h
}

func TestHierarchicalDeploymentShape(t *testing.T) {
	d, h := newHierDeployment(t, simnet.HierarchySpec{Edges: 6, Hubs: 2})
	if d.Main == nil || d.Main.Name() != simnet.NodeMain {
		t.Fatalf("main = %v", d.Main)
	}
	if len(d.Edges) != 6 {
		t.Fatalf("edges = %d", len(d.Edges))
	}
	// ServerFor routes each edge client group to its collocated PoP.
	for i, edge := range d.Edges {
		clients := h.ClientNode(edge.Name())
		if s := d.ServerFor(clients, RemoteFacade); s != edge {
			t.Errorf("edge %d clients -> %s, want %s", i, s.Name(), edge.Name())
		}
		if s := d.ServerFor(clients, Centralized); s != d.Main {
			t.Errorf("centralized edge %d clients -> %s, want main", i, s.Name())
		}
	}
	if s := d.ServerFor(simnet.NodeClientsMain, QueryCaching); s != d.Main {
		t.Errorf("main clients -> %s", s.Name())
	}
}

func TestRoundRobinAssignment(t *testing.T) {
	spec := &container.PartitionSpec{Scheme: container.HashPartition, Partitions: 5}
	asg := RoundRobinAssignment(spec, []string{"e0", "e1"})
	if got := asg.Owned("e0"); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("e0 owns %v", got)
	}
	if got := asg.Owned("e1"); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("e1 owns %v", got)
	}
	if got := asg.Owned("absent"); len(got) != 0 {
		t.Fatalf("absent owns %v", got)
	}
}

// TestAutoWirePartitionedReplicas pins the end-to-end partitioning contract:
// with a PartitionSpec, assigned round-robin over the edges, each edge's
// replica owns a disjoint slice, preloads outside the slice are dropped, and a write — pushed inside
// the commit or with a lease's window — leaves main for exactly the owning
// edge.
func TestAutoWirePartitionedReplicas(t *testing.T) {
	for _, row := range []struct {
		name   string
		update container.Propagation
	}{
		{"sync", container.Propagation{MaxStaleness: time.Second}},
		{"lease", container.Propagation{Window: 500 * time.Millisecond, MaxStaleness: time.Second}},
	} {
		t.Run(row.name, func(t *testing.T) { testPartitionedReplicas(t, row.update) })
	}
}

func testPartitionedReplicas(t *testing.T, update container.Propagation) {
	d, _ := newHierDeployment(t, simnet.HierarchySpec{Edges: 2, Hubs: 1})
	if _, err := d.DB.Exec(`CREATE TABLE item (id TEXT PRIMARY KEY, qty INT NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DB.Exec(`INSERT INTO item VALUES ('b1', 10), ('m1', 20)`); err != nil {
		t.Fatal(err)
	}
	rw, err := container.DeployRWEntity(d.Main, "ItemRW", "item", "id")
	if err != nil {
		t.Fatal(err)
	}
	d.RegisterRW(rw)
	// Two hash partitions, one per edge: "b1" hashes to partition 0
	// (edge000), "m1" to partition 1 (edge001).
	pspec := &container.PartitionSpec{Scheme: container.HashPartition, Partitions: 2}
	ext := &container.ExtendedDescriptor{
		Replicas: []container.ReplicaSpec{
			{Bean: "ItemRW", Update: update, Partition: pspec},
		},
	}
	edges := []string{d.Edges[0].Name(), d.Edges[1].Name()}
	w, err := AutoWire(d, ext, WireOptions{}, d.Edges...)
	if err != nil {
		t.Fatal(err)
	}
	ro0 := w.Replica(edges[0], "ItemRW")
	ro1 := w.Replica(edges[1], "ItemRW")
	// Ownership is disjoint and OwnsKey reflects it.
	if !ro0.Owns(sqldb.Str("b1")) || ro0.Owns(sqldb.Str("m1")) {
		t.Fatalf("%s ownership wrong", edges[0])
	}
	if ro1.Owns(sqldb.Str("b1")) || !ro1.Owns(sqldb.Str("m1")) {
		t.Fatalf("%s ownership wrong", edges[1])
	}
	if !w.OwnsKey(edges[0], "ItemRW", sqldb.Str("b1")) || w.OwnsKey(edges[0], "ItemRW", sqldb.Str("m1")) {
		t.Fatal("OwnsKey disagrees with replica ownership")
	}
	// Unpartitioned beans always own.
	if !w.OwnsKey(edges[0], "NoSuchBean", sqldb.Str("m1")) {
		t.Fatal("OwnsKey must default to true for unknown beans")
	}
	// Preloads land only on the owner.
	for _, ro := range []*container.ROEntity{ro0, ro1} {
		ro.Preload(sqldb.Str("b1"), container.State{"qty": sqldb.Int(10)})
		ro.Preload(sqldb.Str("m1"), container.State{"qty": sqldb.Int(20)})
	}
	if ro0.Cached() != 1 || ro1.Cached() != 1 {
		t.Fatalf("cached: %s=%d %s=%d, want 1 each", edges[0], ro0.Cached(), edges[1], ro1.Cached())
	}
	// A write is sent to exactly the owning edge: the other edge's updater
	// façade never hears of it.
	runWarm(d.Env, "writer", func(p *sim.Proc) {
		if _, err := rw.UpdateFields(p, sqldb.Str("b1"), container.State{"qty": sqldb.Int(3)}); err != nil {
			t.Errorf("update: %v", err)
		}
	})
	// One update reached one updater façade and one replica: the owner's,
	// whose state the Peek below checks.
	reg := d.Env.Metrics()
	if pushes, applied := reg.CounterValue("container_replica_pushes_total"), reg.CounterValue("container_updates_applied_total"); pushes != 1 || applied != 1 {
		t.Fatalf("after write to b1: %d pushes, %d updates applied, want 1/1", pushes, applied)
	}
	if st, ok := ro0.Peek(sqldb.Str("b1")); !ok || st.Get("qty").AsInt() != 3 {
		t.Fatalf("owner replica state: %v %v", st, ok)
	}
}

// TestOneConstructor: the paper deployment is the hierarchical deployment of
// Options.Topology, whose zero value is the star — same servers, same client
// groups, whichever constructor is called.
func TestOneConstructor(t *testing.T) {
	star := newDeployment(t)
	viaSpec, h := newHierDeployment(t, simnet.HierarchySpec{})
	for _, d := range []*Deployment{star, viaSpec} {
		if len(d.Edges) != 2 || d.Edges[0].Name() != simnet.NodeEdge1 || d.Edges[1].Name() != simnet.NodeEdge2 {
			t.Fatalf("star edges = %v", d.Edges)
		}
		for server, clients := range map[string]string{
			simnet.NodeMain:  simnet.NodeClientsMain,
			simnet.NodeEdge1: simnet.NodeClientsEdge1,
			simnet.NodeEdge2: simnet.NodeClientsEdge2,
		} {
			if got := d.ClientNodeOf(server); got != clients {
				t.Errorf("clients of %s = %q, want %q", server, got, clients)
			}
		}
	}
	if got := h.Subtree(simnet.NodeRouter); len(got) != 2 {
		t.Errorf("router subtree = %v", got)
	}

	opts := DefaultOptions()
	opts.Topology = simnet.HierarchySpec{Edges: 3}
	d, err := NewPaperDeployment(sim.NewEnv(11), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Edges) != 3 || d.ClientNodeOf(d.Edges[2].Name()) != simnet.EdgeClientsName(2) {
		t.Errorf("Options.Topology ignored: %d edges, clients of the third on %q", len(d.Edges), d.ClientNodeOf(d.Edges[2].Name()))
	}
}
