package faults

import (
	"time"

	"wadeploy/internal/simnet"
)

// SubtreePartition builds a schedule that isolates one hub's whole subtree
// for [at, at+duration): the hub's backbone uplink goes down together with
// every redundant uplink leaving the subtree, so even redundantly-uplinked
// edges are cut off from the main site (they keep serving their local
// clients — that is exactly the serve-stale scenario the resilience layer
// covers). The observation window spans the outage.
func SubtreePartition(h *simnet.Hierarchy, hub string, at, duration time.Duration) *Schedule {
	s := &Schedule{
		Name:   "subtree-partition-" + hub,
		Window: [2]time.Duration{at, at + duration},
		Events: []Event{
			{Kind: LinkDown, A: simnet.NodeMain, B: hub, At: at, Duration: duration},
		},
	}
	for _, edge := range h.Subtree(hub) {
		if backup := h.BackupHub(edge); backup != "" {
			s.Events = append(s.Events, Event{
				Kind: LinkDown, A: edge, B: backup, At: at, Duration: duration,
			})
		}
	}
	return s
}
