package core

import (
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/sim"
)

func TestEffectiveReplicasNilIsIdentityCopy(t *testing.T) {
	specs := []container.ReplicaSpec{
		{Bean: "A", Update: container.SyncUpdate, Refresh: container.PushRefresh},
		{Bean: "B", Update: container.AsyncUpdate, Refresh: container.PullRefresh},
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
		{Bean: "A", Update: container.SyncUpdate, Refresh: container.PushRefresh},
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
		{Bean: "Push", Update: container.AsyncUpdate, Refresh: container.PushRefresh},
		{Bean: "Pull", Update: container.AsyncUpdate, Refresh: container.PullRefresh},
	}
	r := &ReplicationOptions{DeltasByDefault: true}
	out := r.effectiveReplicas(specs)
	if !out[0].DeltaPush {
		t.Fatal("push-refresh replica not switched to deltas")
	}
	if out[1].DeltaPush {
		t.Fatal("pull-refresh replica switched to deltas (has no push to slim)")
	}
}

func TestEffectiveReplicasSharedBatchWindow(t *testing.T) {
	specs := []container.ReplicaSpec{
		{Bean: "Async", Update: container.AsyncUpdate, Refresh: container.PushRefresh},
		{Bean: "Own", Update: container.AsyncUpdate, Refresh: container.PushRefresh, BatchWindow: 50 * time.Millisecond},
		{Bean: "Sync", Update: container.SyncUpdate, Refresh: container.PushRefresh},
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
