// Entity partitions assigned per edge, so that on N-edge hierarchies each PoP
// holds a slice of the key space instead of a full replica.
package core

import (
	"slices"
	"sort"

	"wadeploy/internal/container"
	"wadeploy/internal/sqldb"
)

// PartitionAssignment maps server node -> the partition indices it owns for
// one partitioned bean. Servers absent from the map own nothing.
type PartitionAssignment map[string][]int

// RoundRobinAssignment spreads partitions over the edges in ring order
// (partition p lands on edges[p mod len(edges)]): how AutoWire assigns every
// partitioned bean over the deployment's edges.
func RoundRobinAssignment(spec *container.PartitionSpec, edges []string) PartitionAssignment {
	asg := make(PartitionAssignment, len(edges))
	if spec == nil || len(edges) == 0 {
		return asg
	}
	for p := 0; p < spec.Partitions; p++ {
		e := edges[p%len(edges)]
		asg[e] = append(asg[e], p)
	}
	return asg
}

// Owned returns the sorted partition list assigned to server.
func (a PartitionAssignment) Owned(server string) []int {
	owned := append([]int(nil), a[server]...)
	sort.Ints(owned)
	return owned
}

// applyPartitioning arms a freshly deployed replica and, when its bean is
// pushed over RMI, the server's push target with the bean's partition slice.
// No-op for unpartitioned beans (full replication). A topic message is shared
// across edges, so async pushes stay unfiltered at the source and the
// replica's ownership check drops unowned keys on arrival. So do the pushes
// of a bean a cached query hears of: an edge's query cache holds results
// over the whole key space, and a push it missed would leave them stale.
func (w *Wiring) applyPartitioning(server string, spec container.ReplicaSpec, ro *container.ROEntity) {
	asg, ok := w.owned[spec.Bean]
	if !ok {
		return
	}
	owned := asg.Owned(server)
	ro.SetOwnership(spec.Partition.Owns(owned))
	heard := slices.ContainsFunc(w.ext.CachedQueries, func(q container.CachedQuerySpec) bool {
		return slices.Contains(q.InvalidatedBy, spec.Bean)
	})
	if ps, ok := w.rmiPushers[spec.Bean]; ok && !heard {
		ps.SetTargetPartitions(w.target(server), spec.Partition, owned)
	}
}

// OwnsKey reports whether the replica of bean on server owns pk — the hook
// query caches use to scope cached results to the local partition slice, and
// a migration to ship an edge only the keys it will own. An unwired server
// answers from the partition assignment; an unpartitioned bean owns every
// key.
func (w *Wiring) OwnsKey(server, bean string, pk sqldb.Value) bool {
	if ro := w.Replica(server, bean); ro != nil {
		return ro.Owns(pk)
	}
	for _, spec := range w.ext.Replicas {
		if spec.Bean == bean && spec.Partition != nil {
			return slices.Contains(w.owned[bean][server], spec.Partition.PartitionFor(pk))
		}
	}
	return true
}
