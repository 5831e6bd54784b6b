package rubis

import (
	"strconv"
	"testing"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/workload"
)

// TestDeployPartitionedItems pins RUBiS's minimal partitioning contract:
// Item replicas shard per edge (disjoint ownership, remote gets for unowned
// ids), User replicas stay full.
func TestDeployPartitionedItems(t *testing.T) {
	const edges = 4
	env := sim.NewEnv(9)
	defer env.Close()
	d, h, err := core.NewHierarchicalDeployment(env, DeployOptions(), simnet.HierarchySpec{Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	p := core.QueryCaching
	p.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: edges}
	a, err := Deploy(d, p)
	if err != nil {
		t.Fatal(err)
	}
	w := a.Wiring()
	// Item ids are owned by exactly one edge; users by all.
	for id := int64(1); id <= 20; id++ {
		owners := 0
		for _, e := range d.Edges {
			if w.Replica(e.Name(), BeanItem).Owns(sqldb.Int(id)) {
				owners++
			}
			if !w.Replica(e.Name(), BeanUser).Owns(sqldb.Int(id)) {
				t.Fatalf("user %d not owned on %s: User replicas must stay full", id, e.Name())
			}
		}
		if owners != 1 {
			t.Fatalf("item %d owned by %d edges, want exactly 1", id, owners)
		}
	}
	// Preload respected the slices: each edge caches NumItems/edges-ish items,
	// and together they cover the table exactly once.
	total := 0
	for _, e := range d.Edges {
		c := w.Replica(e.Name(), BeanItem).Cached()
		if c == 0 || c == NumItems {
			t.Fatalf("%s caches %d items, want a strict slice of %d", e.Name(), c, NumItems)
		}
		total += c
	}
	if total != NumItems {
		t.Fatalf("slices cover %d items, want %d", total, NumItems)
	}
	// An Item page works from an edge client for owned and unowned ids alike.
	edge0 := d.Edges[0]
	itemRO := w.Replica(edge0.Name(), BeanItem)
	ownedID, unownedID := int64(0), int64(0)
	for id := int64(1); id <= NumItems && (ownedID == 0 || unownedID == 0); id++ {
		if itemRO.Owns(sqldb.Int(id)) {
			ownedID = id
		} else {
			unownedID = id
		}
	}
	client := workload.Client{Node: h.ClientNode(edge0.Name()), ID: "c-e0"}
	remoteGets := func() int64 { return env.Metrics().CounterValue("container_replica_remote_gets_total") }
	before := remoteGets()
	runWarm(env, "probe", func(p *sim.Proc) {
		for _, id := range []int64{ownedID, unownedID} {
			if _, err := a.RequestFunc()(p, client, workload.Step{
				Page: PageItem, Params: map[string]string{"item": strconv.FormatInt(id, 10)},
			}); err != nil {
				t.Errorf("item %d: %v", id, err)
			}
		}
	})
	if remoteGets() == before {
		t.Error("unowned item view should count a remote get")
	}
}

func TestRubisTopoWorkloadSpread(t *testing.T) {
	env := sim.NewEnv(9)
	defer env.Close()
	d, _, err := core.NewHierarchicalDeployment(env, DeployOptions(), simnet.HierarchySpec{Edges: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Deploy(d, core.QueryCaching)
	if err != nil {
		t.Fatal(err)
	}
	groups := a.Workload(1)
	if len(groups) != 4 {
		t.Fatalf("groups = %d", len(groups))
	}
	totB, totW := 0, 0
	for _, g := range groups[1:] {
		totB += g.Browsers
		totW += g.Writers
	}
	if totB != 128 || totW != 32 {
		t.Fatalf("remote totals %d/%d, want 128/32", totB, totW)
	}
}
