// Entity partitioning: instead of every edge holding a full replica of a
// read-only bean, the bean's key space is split into partitions by a hash of
// the primary key and each partition is placed independently.
// An edge then owns a slice of the key space: owned keys are served and
// refreshed locally, unowned keys fall through to the remote façade, and
// update propagation is routed only to the edges that own the key's
// partition.
package container

import (
	"fmt"
	"hash/fnv"

	"wadeploy/internal/sqldb"
)

// PartitionScheme selects how primary keys map to partitions.
type PartitionScheme int

// HashPartition, the one scheme, spreads keys with an FNV-1a hash of the
// canonical primary-key string — uniform, placement-oblivious.
const HashPartition PartitionScheme = 1

// PartitionSpec declares how one replicated bean's key space is partitioned.
// The zero value (no spec) means full replication, the paper's mode.
type PartitionSpec struct {
	Scheme     PartitionScheme
	Partitions int
}

// Validate checks internal consistency.
func (s *PartitionSpec) Validate() error {
	if s == nil {
		return nil
	}
	if s.Partitions < 1 {
		return fmt.Errorf("%w: partition spec needs >= 1 partitions, got %d", ErrBadDescriptor, s.Partitions)
	}
	if s.Scheme != HashPartition {
		return fmt.Errorf("%w: unknown partition scheme", ErrBadDescriptor)
	}
	return nil
}

// PartitionFor maps a primary key to its partition index in [0, Partitions).
// The mapping is a pure function of the spec and the key's canonical string
// (Value.AsString), so every layer (preload, propagation, query caches, the
// planner) agrees on ownership without coordination.
func (s *PartitionSpec) PartitionFor(pk sqldb.Value) int {
	return s.PartitionForKey(pk.AsString())
}

// PartitionForKey is PartitionFor on an already-canonicalized key string.
func (s *PartitionSpec) PartitionForKey(key string) int {
	if s == nil || s.Partitions <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum64() % uint64(s.Partitions))
}

// OwnedSet marks the owned partitions in a set indexed by partition, the one
// form ROEntity ownership (Owns) and Pusher.SetTargetPartitions share.
func (s *PartitionSpec) OwnedSet(owned []int) []bool {
	set := make([]bool, max(s.Partitions, 1))
	for _, p := range owned {
		set[p] = true
	}
	return set
}

// Owns builds an ownership predicate over the given partition set — the hook
// ROEntity.SetOwnership takes.
func (s *PartitionSpec) Owns(owned []int) func(sqldb.Value) bool {
	set := s.OwnedSet(owned)
	return func(pk sqldb.Value) bool { return set[s.PartitionFor(pk)] }
}
