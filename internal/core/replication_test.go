package core

import (
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/sim"
)

func TestEffectiveReplicasNilIsIdentityCopy(t *testing.T) {
	specs := []container.ReplicaSpec{
		{Bean: "A", Update: container.SyncUpdate},
		{Bean: "B", Update: container.AsyncUpdate, MaxStaleness: time.Second},
	}
	var r *ReplicationOptions
	out := r.effectiveReplicas(specs)
	if len(out) != 2 || out[0] != specs[0] || out[1] != specs[1] {
		t.Fatalf("nil options changed specs: %+v", out)
	}
	// The result is a copy: mutating it must not touch the descriptor's slice.
	out[0].Bean = "mutated"
	if specs[0].Bean != "A" {
		t.Fatal("effectiveReplicas aliases the input slice")
	}
}

func TestEffectiveReplicasModeOverride(t *testing.T) {
	specs := []container.ReplicaSpec{
		{Bean: "A", Update: container.SyncUpdate},
	}

	// Lease override carries the experiment's staleness budget.
	r := &ReplicationOptions{Mode: container.LeaseUpdate, MaxStaleness: 3 * time.Second}
	out := r.effectiveReplicas(specs)
	if out[0].Update != container.LeaseUpdate || out[0].MaxStaleness != 3*time.Second {
		t.Fatalf("lease override: %+v", out[0])
	}

	// Sync override clears any batch window: sync writes block per commit.
	specs[0].Update = container.AsyncUpdate
	specs[0].BatchWindow = 100 * time.Millisecond
	r = &ReplicationOptions{Mode: container.SyncUpdate}
	out = r.effectiveReplicas(specs)
	if out[0].Update != container.SyncUpdate || out[0].BatchWindow != 0 {
		t.Fatalf("sync override: %+v", out[0])
	}
	if specs[0].Update != container.AsyncUpdate {
		t.Fatal("descriptor spec mutated by override")
	}
}

// TestStalenessWindow: AutoWire flushes a lease at half its staleness
// budget, floored at 1ms.
func TestStalenessWindow(t *testing.T) {
	if w := stalenessWindow(time.Second); w != 500*time.Millisecond {
		t.Fatalf("window(1s) = %v, want 500ms", w)
	}
	if w := stalenessWindow(3 * time.Second); w != 1500*time.Millisecond {
		t.Fatalf("window(3s) = %v, want 1.5s", w)
	}
	if w := stalenessWindow(0); w != time.Millisecond {
		t.Fatalf("window(0) = %v, want the 1ms floor", w)
	}
}

func TestEffectiveReplicasDeltasByDefault(t *testing.T) {
	specs := []container.ReplicaSpec{
		{Bean: "Async", Update: container.AsyncUpdate},
		{Bean: "Sync", Update: container.SyncUpdate},
	}
	r := &ReplicationOptions{DeltasByDefault: true}
	out := r.effectiveReplicas(specs)
	for _, s := range out {
		if !s.DeltaPush {
			t.Fatalf("replica %s not switched to deltas", s.Bean)
		}
	}
	if specs[0].DeltaPush {
		t.Fatal("descriptor spec mutated by deltas-by-default")
	}
}

func TestEffectiveReplicasSharedBatchWindow(t *testing.T) {
	specs := []container.ReplicaSpec{
		{Bean: "Async", Update: container.AsyncUpdate},
		{Bean: "Own", Update: container.AsyncUpdate, BatchWindow: 50 * time.Millisecond},
		{Bean: "Sync", Update: container.SyncUpdate},
	}
	r := &ReplicationOptions{BatchWindow: 200 * time.Millisecond}
	out := r.effectiveReplicas(specs)
	if out[0].BatchWindow != 200*time.Millisecond {
		t.Fatalf("shared window not applied: %v", out[0].BatchWindow)
	}
	if out[1].BatchWindow != 50*time.Millisecond {
		t.Fatalf("spec's own window overwritten: %v", out[1].BatchWindow)
	}
	if out[2].BatchWindow != 0 {
		t.Fatalf("sync replica given a batch window: %v", out[2].BatchWindow)
	}
}

// TestPaperDeploymentEchoesReplication: the paper default arms no
// replication options, and a deployment echoes the ones it was given for
// AutoWire to apply.
func TestPaperDeploymentEchoesReplication(t *testing.T) {
	d, err := NewPaperDeployment(sim.NewEnv(11), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.Replication != nil {
		t.Fatal("paper-default deployment armed replication options")
	}

	opts := DefaultOptions()
	opts.Replication = &ReplicationOptions{DeltasByDefault: true}
	d2, err := NewPaperDeployment(sim.NewEnv(11), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Replication != opts.Replication {
		t.Fatal("deployment does not echo its replication options")
	}
}
