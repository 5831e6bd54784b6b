package core

import (
	"time"

	"wadeploy/internal/container"
)

// ReplicationOptions opts a deployment into the post-paper propagation
// defaults. The zero value of every
// field keeps the corresponding behavior off; Options.Replication == nil
// (the paper default) keeps all of it off, so Tables 6-7 / Figures 7-8
// remain byte-identical — the two-book discipline.
type ReplicationOptions struct {
	// DeltasByDefault makes every replica receive delta
	// pushes (changed fields only). This is Section 4.3's "transfer only
	// the changes" optimization promoted from opt-in to default.
	DeltasByDefault bool

	// BatchWindow, when positive, batches and coalesces asynchronous
	// pushes per (destination, window): all async beans share one topic
	// message per window, and repeated commits to one entity collapse to
	// its last-writer delta. Specs with their own BatchWindow keep it.
	BatchWindow time.Duration

	// Mode, when non-zero, overrides every replica spec's update mode —
	// the consistency-spectrum experiment's knob for sweeping one
	// workload across sync, lease and async propagation.
	Mode container.UpdateMode

	// MaxStaleness, with Mode == LeaseUpdate, is the per-replica
	// staleness budget the lease window is derived from.
	MaxStaleness time.Duration
}

// effectiveReplicas applies the replication overrides to the descriptor's
// replica specs: the experiment's mode override first, then
// deltas-by-default and the shared async batch window. The returned slice
// is a copy; the descriptor is never mutated.
func (r *ReplicationOptions) effectiveReplicas(specs []container.ReplicaSpec) []container.ReplicaSpec {
	out := make([]container.ReplicaSpec, len(specs))
	copy(out, specs)
	if r == nil {
		return out
	}
	for i := range out {
		s := &out[i]
		if r.Mode != 0 {
			s.Update = r.Mode
			if r.Mode == container.LeaseUpdate && r.MaxStaleness > 0 {
				s.MaxStaleness = r.MaxStaleness
			}
			if r.Mode == container.SyncUpdate {
				s.BatchWindow = 0
			}
		}
		if r.DeltasByDefault {
			s.DeltaPush = true
		}
		if r.BatchWindow > 0 && s.Update != container.SyncUpdate && s.BatchWindow == 0 {
			s.BatchWindow = r.BatchWindow
		}
	}
	return out
}
