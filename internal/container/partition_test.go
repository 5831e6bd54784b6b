package container

import (
	"errors"
	"testing"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

func TestPartitionSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec *PartitionSpec
		ok   bool
	}{
		{"nil spec", nil, true},
		{"hash", &PartitionSpec{Scheme: HashPartition, Partitions: 4}, true},
		{"zero partitions", &PartitionSpec{Scheme: HashPartition}, false},
		{"unknown scheme", &PartitionSpec{Partitions: 2}, false},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: expected error", tc.name)
			} else if !errors.Is(err, ErrBadDescriptor) {
				t.Errorf("%s: error %v not ErrBadDescriptor", tc.name, err)
			}
		}
	}
}

func TestHashPartitionDeterministicAndInRange(t *testing.T) {
	spec := &PartitionSpec{Scheme: HashPartition, Partitions: 7}
	hit := make(map[int]bool)
	for _, k := range []string{"i1", "i2", "cat-01", "prod-0042", "user:9", "x"} {
		p := spec.PartitionForKey(k)
		if p < 0 || p >= spec.Partitions {
			t.Fatalf("key %q mapped outside [0,%d): %d", k, spec.Partitions, p)
		}
		if q := spec.PartitionFor(sqldb.Str(k)); q != p {
			t.Fatalf("key %q: PartitionFor %d != PartitionForKey %d", k, q, p)
		}
		hit[p] = true
	}
	if len(hit) < 2 {
		t.Fatalf("all sample keys hashed to one partition: %v", hit)
	}
}

func TestPartitionedReplicaOwnership(t *testing.T) {
	f := newFixture(t)
	fetches := 0
	ro, err := DeployROEntity(f.edge, "RO", "RW", func(p *sim.Proc, pk sqldb.Value) (Row, error) {
		fetches++
		return State{"v": sqldb.Int(99)}.row(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two hash partitions: "i1" hashes to partition 1, "i2" to 0, and the
	// edge owns only partition 1.
	spec := &PartitionSpec{Scheme: HashPartition, Partitions: 2}
	ro.SetOwnership(spec.Owns([]int{1}))

	// Preload drops unowned keys.
	ro.Preload(sqldb.Str("i1"), State{"v": sqldb.Int(1)})
	ro.Preload(sqldb.Str("i2"), State{"v": sqldb.Int(2)})
	if ro.Cached() != 1 {
		t.Fatalf("cached = %d, want 1 (unowned preload dropped)", ro.Cached())
	}
	if _, ok := ro.Peek(sqldb.Str("i2")); ok {
		t.Fatal("unowned key entered the cache via Preload")
	}

	// Pushed updates for unowned keys are dropped before any accounting.
	ro.ApplyUpdate(Update{Bean: "RW", PK: sqldb.Str("i2"), State: State{"v": sqldb.Int(3)}.row()})
	if pushes := f.count("container_replica_pushes_total"); pushes != 0 || ro.Cached() != 1 {
		t.Fatalf("unowned push applied: pushes=%d cached=%d", pushes, ro.Cached())
	}
	ro.ApplyUpdate(Update{Bean: "RW", PK: sqldb.Str("i1"), State: State{"v": sqldb.Int(4)}.row()})
	if pushes := f.count("container_replica_pushes_total"); pushes != 1 {
		t.Fatalf("owned push not applied: pushes=%d", pushes)
	}

	f.run(t, func(p *sim.Proc) {
		// Owned key: served locally, no fetch.
		if st, err := ro.Get(p, sqldb.Str("i1")); err != nil || st.Get("v").AsInt() != 4 {
			t.Errorf("owned get: %v, %v", st, err)
		}
		// Unowned key: remote get every time, never cached.
		for i := 0; i < 2; i++ {
			if st, err := ro.Get(p, sqldb.Str("i2")); err != nil || st.Get("v").AsInt() != 99 {
				t.Errorf("unowned get: %v, %v", st, err)
			}
		}
	})
	if fetches != 2 {
		t.Fatalf("fetches = %d, want 2 (one per unowned read)", fetches)
	}
	if remote := f.count("container_replica_remote_gets_total"); remote != 2 {
		t.Fatalf("remote gets = %d, want 2", remote)
	}
	if hits, misses := f.count("container_replica_hits_total"), f.count("container_replica_misses_total"); hits != 1 || misses != 0 {
		t.Fatalf("hits=%d misses=%d (unowned reads must not touch hit/miss accounting)", hits, misses)
	}
	if ro.Cached() != 1 {
		t.Fatalf("cached = %d after unowned reads, want 1", ro.Cached())
	}
}

// TestPartitionScopedServeStale pins the graceful-degradation contract under
// partitioning: when the central site is unreachable, an edge keeps serving
// its owned slice from stale local copies, while unowned keys — which are
// always remote gets — fail fast instead of silently serving nothing.
func TestPartitionScopedServeStale(t *testing.T) {
	f := newFixture(t)
	central := true
	ro, err := DeployROEntity(f.edge, "RO", "RW", func(p *sim.Proc, pk sqldb.Value) (Row, error) {
		if !central {
			return Row{}, errors.New("central site unreachable")
		}
		return State{"v": sqldb.Int(99)}.row(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := &PartitionSpec{Scheme: HashPartition, Partitions: 2}
	ro.SetOwnership(spec.Owns([]int{1})) // "i1" only
	ro.SetTTL(time.Second)
	ro.SetServeStale(time.Hour)
	ro.Preload(sqldb.Str("i1"), State{"v": sqldb.Int(1)})

	f.run(t, func(p *sim.Proc) {
		central = false
		// Owned key, expired, refresh fails: served stale.
		p.Sleep(2 * time.Second)
		st, err := ro.Get(p, sqldb.Str("i1"))
		if err != nil || st.Get("v").AsInt() != 1 {
			t.Errorf("owned stale serve: %v, %v", st, err)
		}
		// Unowned key: remote get fails, and there is no stale fallback
		// because the edge never cached it.
		if _, err := ro.Get(p, sqldb.Str("i2")); err == nil {
			t.Error("unowned get succeeded with central site down")
		}
	})
	if stale := f.count("container_stale_serves_total"); stale != 1 {
		t.Fatalf("stale serves = %d, want 1", stale)
	}
}

func TestDescriptorValidatesPartitionSpec(t *testing.T) {
	d := &ExtendedDescriptor{Replicas: []ReplicaSpec{{
		Bean:      "Item",
		Partition: &PartitionSpec{Scheme: HashPartition},
	}}}
	if err := d.Validate(); !errors.Is(err, ErrBadDescriptor) {
		t.Fatalf("err = %v, want ErrBadDescriptor (no partitions)", err)
	}
	d.Replicas[0].Partition = &PartitionSpec{Scheme: HashPartition, Partitions: 4}
	if err := d.Validate(); err != nil {
		t.Fatalf("valid partitioned descriptor rejected: %v", err)
	}
}
