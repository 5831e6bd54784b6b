package experiment

import (
	"errors"
	"strings"
	"testing"
	"time"

	"wadeploy/internal/core"
)

// shortTopoOpts keeps topo-sweep tests fast: a few simulated minutes.
func shortTopoOpts() TopoSweepOptions {
	return TopoSweepOptions{
		RunOptions: RunOptions{Seed: 1, Warmup: 30 * time.Second, Duration: 2 * time.Minute},
		Config:     core.QueryCaching,
	}
}

func TestTopoSweepScalesEdges(t *testing.T) {
	opts := shortTopoOpts()
	opts.Partitions = 8
	pts, err := TopoSweep(PetStore, []int{2, 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Edges != 2 || pts[1].Edges != 4 {
		t.Fatalf("points = %+v", pts)
	}
	for _, pt := range pts {
		if pt.Samples == 0 {
			t.Errorf("%d edges: no samples", pt.Edges)
		}
		if pt.Errors != 0 {
			t.Errorf("%d edges: %d errors", pt.Edges, pt.Errors)
		}
		if pt.RemoteBrowser == 0 || pt.LocalBrowser == 0 {
			t.Errorf("%d edges: zero session means %+v", pt.Edges, pt)
		}
		if pt.WANBytes == 0 {
			t.Errorf("%d edges: no WAN traffic measured", pt.Edges)
		}
		if pt.Hubs != 1 {
			t.Errorf("%d edges: hubs = %d, want 1 (default derivation)", pt.Edges, pt.Hubs)
		}
	}
	out := FormatTopo(PetStore, pts)
	if !strings.Contains(out, "8 hash partitions") || !strings.Contains(out, "wan-MB") {
		t.Errorf("format output:\n%s", out)
	}
}

// TestTopoSweepDeterministicAcrossParallelism pins the ISSUE acceptance
// criterion: the sweep's formatted output is byte-identical at any
// parallelism.
func TestTopoSweepDeterministicAcrossParallelism(t *testing.T) {
	edgeCounts := []int{2, 3, 5}
	run := func(parallelism int) string {
		opts := shortTopoOpts()
		opts.Parallelism = parallelism
		opts.Partitions = 4
		pts, err := TopoSweep(RUBiS, edgeCounts, opts)
		if err != nil {
			t.Fatal(err)
		}
		return FormatTopo(RUBiS, pts)
	}
	seq := run(1)
	par := run(8)
	if seq != par {
		t.Fatalf("topo sweep differs across parallelism:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestTopoSweepPartitioningShrinksFootprint is the tentpole's economic
// claim: with the same topology and workload, sharding the hot entities
// leaves each edge holding a slice (smaller total replica footprint) and
// pushes each write to its owners only (fewer push deliveries) — the trade
// being remote gets for unowned reads.
func TestTopoSweepPartitioningShrinksFootprint(t *testing.T) {
	run := func(partitions int) TopoPoint {
		opts := shortTopoOpts()
		opts.Partitions = partitions
		pts, err := TopoSweep(PetStore, []int{4}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pts[0]
	}
	full := run(0)
	sharded := run(8)
	if sharded.ReplicaEntries >= full.ReplicaEntries {
		t.Errorf("partitioned footprint %d >= full-replication %d", sharded.ReplicaEntries, full.ReplicaEntries)
	}
	if sharded.Pushes >= full.Pushes {
		t.Errorf("partitioned pushes %d >= full-replication %d", sharded.Pushes, full.Pushes)
	}
}

func TestTopoSweepValidation(t *testing.T) {
	if _, err := TopoSweep(PetStore, []int{0}, shortTopoOpts()); err == nil {
		t.Error("zero edge count accepted")
	}
	bad := shortTopoOpts()
	bad.Config = core.Policy{QueryCaches: true}
	if _, err := TopoSweep(PetStore, []int{2}, bad); !errors.Is(err, core.ErrPolicy) {
		t.Errorf("caches without an edge web tier: %v, want a policy error", err)
	}
}
