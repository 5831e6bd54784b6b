package experiment

import (
	"errors"
	"strings"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/simnet"
)

// topoSweep runs app under query caching with the hot entities hashed into
// partitions (0: full replication) once per edge count, a few simulated
// minutes each.
func topoSweep(t *testing.T, app AppID, partitions int, edges ...int) []*Result {
	t.Helper()
	cfg := core.QueryCaching
	if partitions > 0 {
		cfg.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: partitions}
	}
	specs := make([]Spec, len(edges))
	for i, n := range edges {
		specs[i] = Spec{App: app, Policy: cfg, Topology: simnet.HierarchySpec{Edges: n},
			RunOptions: RunOptions{Seed: 1, Warmup: 30 * time.Second, Duration: 2 * time.Minute}}
	}
	results, err := RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestTopoSweepScalesEdges(t *testing.T) {
	results := topoSweep(t, PetStore, 8, 2, 4)
	for _, r := range results {
		n := r.Spec.Topology.Edges
		if r.Samples == 0 {
			t.Errorf("%d edges: no samples", n)
		}
		if r.Errors != 0 {
			t.Errorf("%d edges: %d errors", n, r.Errors)
		}
		if m := sessionMeans(r); m[remoteBrowse] == 0 || m[localBrowse] == 0 {
			t.Errorf("%d edges: zero session means %v", n, m)
		}
		if wanBytes(r.Metrics) == 0 {
			t.Errorf("%d edges: no WAN traffic measured", n)
		}
		if r.Hubs != 1 {
			t.Errorf("%d edges: hubs = %d, want 1 (default derivation)", n, r.Hubs)
		}
	}
	out := FormatTopo(results)
	if !strings.Contains(out, "8 hash partitions") || !strings.Contains(out, "wan-MB") {
		t.Errorf("format output:\n%s", out)
	}
}

// TestTopoSweepPartitioningShrinksFootprint is the topology sweep's economic
// claim: with the same topology and workload, sharding the hot entities
// leaves each edge holding a slice (smaller total replica footprint) and
// pushes each write to its owners only (fewer push deliveries) — the trade
// being remote gets for unowned reads.
func TestTopoSweepPartitioningShrinksFootprint(t *testing.T) {
	full, sharded := topoSweep(t, PetStore, 0, 4)[0], topoSweep(t, PetStore, 8, 4)[0]
	if sharded.ReplicaEntries >= full.ReplicaEntries {
		t.Errorf("partitioned footprint %d >= full-replication %d", sharded.ReplicaEntries, full.ReplicaEntries)
	}
	pushes := func(r *Result) int64 { return r.Metrics.Counter("container_replica_pushes_total") }
	if pushes(sharded) >= pushes(full) {
		t.Errorf("partitioned pushes %d >= full-replication %d", pushes(sharded), pushes(full))
	}
}

func TestTopoSweepValidation(t *testing.T) {
	bad := Spec{App: PetStore, Policy: core.Policy{QueryCaches: true}, Topology: simnet.HierarchySpec{Edges: 2}}
	if _, err := RunAll([]Spec{bad}); !errors.Is(err, core.ErrPolicy) {
		t.Errorf("caches without an edge web tier: %v, want a policy error", err)
	}
}
