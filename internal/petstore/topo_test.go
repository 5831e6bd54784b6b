package petstore

import (
	"errors"
	"testing"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/workload"
)

// deployTopoApp builds an N-edge hierarchical deployment with Pet Store
// installed partition-aware.
func deployTopoApp(t *testing.T, edges int, p core.Policy) (*App, *simnet.Hierarchy) {
	t.Helper()
	env := sim.NewEnv(5)
	d, h, err := core.NewHierarchicalDeployment(env, core.DefaultOptions(), simnet.HierarchySpec{Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Deploy(d, p)
	if err != nil {
		t.Fatal(err)
	}
	return a, h
}

// partitioned is p with its hot entities hash-sharded n ways.
func partitioned(p core.Policy, n int) core.Policy {
	p.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: n}
	return p
}

func TestDeployTopoUnpartitionedMatchesDeploy(t *testing.T) {
	a, _ := deployTopoApp(t, 4, core.QueryCaching)
	defer a.Deployment().Env.Close()
	// Every edge owns every query param: caching is unrestricted.
	for _, edge := range a.Deployment().Edges {
		if !a.ownsQueryParam(edge, sqldb.Str(ItemID(0, 0, 0))) {
			t.Fatalf("%s should own all params without partitioning", edge.Name())
		}
	}
}

// TestDeployTopoPartitionedOwnership pins the tentpole contract end to end:
// with a hash PartitionSpec over 4 edges, each edge's Item replica owns a
// disjoint slice, reads for owned items come from the replica, and reads for
// unowned items still succeed via the remote-get path.
func TestDeployTopoPartitionedOwnership(t *testing.T) {
	const edges = 4
	a, h := deployTopoApp(t, edges, partitioned(core.QueryCaching, edges))
	defer a.Deployment().Env.Close()

	d := a.Deployment()
	w := a.Wiring()
	if w == nil {
		t.Fatal("no wiring")
	}
	// Each item key is owned by exactly one edge (round-robin default
	// assignment maps partition p to edge p%N = edge p here).
	for c := 0; c < NumCategories; c++ {
		id := ItemID(c, 0, 0)
		owners := 0
		for _, e := range d.Edges {
			if w.Replica(e.Name(), BeanItem).Owns(sqldb.Str(id)) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("item %s owned by %d edges, want exactly 1", id, owners)
		}
	}
	// A request for any item succeeds from any edge's clients — owned items
	// from the local slice, unowned ones over the remote-get path.
	ownedID, unownedID := "", ""
	edge0 := d.Edges[0]
	for c := 0; c < NumCategories && (ownedID == "" || unownedID == ""); c++ {
		for i := 0; i < ItemsPerProduct && (ownedID == "" || unownedID == ""); i++ {
			id := ItemID(c, 0, i)
			if w.Replica(edge0.Name(), BeanItem).Owns(sqldb.Str(id)) {
				ownedID = id
			} else {
				unownedID = id
			}
		}
	}
	if ownedID == "" || unownedID == "" {
		t.Fatal("could not find both an owned and an unowned item for edge000")
	}
	client := workload.Client{Node: h.ClientNode(edge0.Name()), ID: "c-e0"}
	core.RunWarm(d.Env, "probe", func(p *sim.Proc) {
		for _, id := range []string{ownedID, unownedID} {
			if _, err := a.RequestFunc()(p, client, workload.Step{
				Page: PageItem, Params: map[string]string{"item": id},
			}); err != nil {
				t.Errorf("item %s: %v", id, err)
			}
		}
	})
	itemRO := w.Replica(edge0.Name(), BeanItem)
	if itemRO.RemoteGets() == 0 {
		t.Error("unowned item read should count a remote get")
	}
	// Query caching is partition-scoped: the edge owns some catalog query
	// params and not others.
	if a.ownsQueryParam(edge0, sqldb.Str(ownedID)) == a.ownsQueryParam(edge0, sqldb.Str(unownedID)) {
		t.Error("query-cache scoping should track the partition slice")
	}
}

// TestDeployTopoRejectsBadSpec goes through DeployTopo, the forward the
// benchmark deploys its partitioned hierarchy with.
func TestDeployTopoRejectsBadSpec(t *testing.T) {
	env := sim.NewEnv(5)
	defer env.Close()
	d, _, err := core.NewHierarchicalDeployment(env, core.DefaultOptions(), simnet.HierarchySpec{Edges: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := &container.PartitionSpec{Scheme: container.HashPartition}
	if _, err := DeployTopo(d, core.QueryCaching, TopoOptions{Partition: bad}); !errors.Is(err, core.ErrPolicy) {
		t.Fatalf("zero partitions: %v, want a policy error", err)
	}
	good := &container.PartitionSpec{Scheme: container.HashPartition, Partitions: 2}
	a, err := DeployTopo(d, core.QueryCaching, TopoOptions{Partition: good})
	if err != nil {
		t.Fatal(err)
	}
	if a.Policy().Partition != good {
		t.Fatal("DeployTopo dropped the partition spec")
	}
}

// TestTopoWorkloadSpread pins the constant-total-load property of the sweep
// workload: whatever the edge count, the remote client population equals the
// paper's two remote groups, spread deterministically.
func TestTopoWorkloadSpread(t *testing.T) {
	for _, edges := range []int{1, 2, 3, 5, 8} {
		a, h := deployTopoApp(t, edges, core.QueryCaching)
		groups := a.Workload(1)
		if len(groups) != 1+edges {
			t.Fatalf("edges=%d: %d groups", edges, len(groups))
		}
		if groups[0].Name != "local" || !groups[0].Local ||
			groups[0].ClientNode != simnet.NodeClientsMain ||
			groups[0].Browsers != 64 || groups[0].Writers != 16 {
			t.Fatalf("edges=%d: local group %+v", edges, groups[0])
		}
		totB, totW := 0, 0
		for i, g := range groups[1:] {
			if g.Local {
				t.Fatalf("edges=%d: remote group %s marked local", edges, g.Name)
			}
			wantNode := h.ClientNode(a.Deployment().Edges[i].Name())
			if g.ClientNode != wantNode {
				t.Fatalf("edges=%d: group %s on %s, want %s", edges, g.Name, g.ClientNode, wantNode)
			}
			totB += g.Browsers
			totW += g.Writers
		}
		if totB != 128 || totW != 32 {
			t.Fatalf("edges=%d: remote totals %d browsers / %d writers, want 128/32", edges, totB, totW)
		}
		a.Deployment().Env.Close()
	}
}
