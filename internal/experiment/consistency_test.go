package experiment

import (
	"testing"
	"time"
)

// consQuickOptions keeps the spectrum sweep CI-sized: seven arms, each a
// full seeded simulation, long enough that buyer sessions reach the commit
// page and every arm observes writes.
func consQuickOptions(parallelism int) RunOptions {
	return RunOptions{
		Seed:        1,
		Warmup:      30 * time.Second,
		Duration:    3 * time.Minute,
		Parallelism: parallelism,
	}
}

// TestConsistencySpectrumInvariants pins the spectrum's shape on the
// PetStore commit page: leases trade staleness for write latency, batching
// trades staleness for WAN messages.
func TestConsistencySpectrumInvariants(t *testing.T) {
	arms := ConsistencyArms(Spec{App: PetStore, RunOptions: consQuickOptions(8)})
	results, err := RunAll(arms)
	if err != nil {
		t.Fatal(err)
	}
	byArm := make(map[string]spectrumPoint, len(results))
	for i, r := range results {
		if r.Spec != arms[i] {
			t.Fatalf("result %d ran %q, want %q (order must match ConsistencyArms)", i, r.Spec.Label, arms[i].Label)
		}
		byArm[r.Spec.Label] = spectrum(r)
	}

	sync, lease, batched, async := byArm["sync"], byArm["lease-1s"], byArm["async-batched-250ms"], byArm["async"]
	if sync.commits == 0 || async.commits == 0 {
		t.Fatal("no commits observed; the write page did not run")
	}
	// Leases decouple the writer from the WAN round-trip.
	if lease.writeRemote >= sync.writeRemote {
		t.Errorf("lease remote write %v not below sync %v", lease.writeRemote, sync.writeRemote)
	}
	// The lease arms are the ones paying measured staleness for it.
	if lease.staleSamples == 0 {
		t.Error("lease arm observed no staleness samples")
	}
	if s250, s5 := byArm["lease-250ms"], byArm["lease-5s"]; s250.staleSamples > 0 && s5.staleSamples > 0 &&
		s5.staleMean <= s250.staleMean {
		t.Errorf("staleness did not grow with the budget: 5s arm %v <= 250ms arm %v", s5.staleMean, s250.staleMean)
	}
	// Batching coalesces pushes: strictly fewer WAN messages per commit
	// than the unbatched async baseline.
	if batched.msgsPerCommit() >= async.msgsPerCommit() {
		t.Errorf("batched arm %.3f msgs/commit not below async %.3f",
			batched.msgsPerCommit(), async.msgsPerCommit())
	}
}
