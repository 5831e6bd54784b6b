package container

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// Descriptor is a (standard) deployment descriptor for one bean.
type Descriptor struct {
	Name string
	Kind BeanKind

	// Entity beans only.
	Table    string
	PKColumn string

	// LocalOnly marks the bean as exposing only a local interface (EJB 2.0
	// local interfaces). The paper's design-rule enforcement (Section 5)
	// requires every non-façade component to be local-only so that remote
	// clients can reach shared state exclusively through façades.
	LocalOnly bool

	// Facade marks the bean as a remotely invocable façade.
	Facade bool
}

// UpdateMode selects how replica refresh traffic is delivered.
type UpdateMode int

// Update modes for read-only replicas and query caches.
const (
	// SyncUpdate blocks the writer until every replica applied the push
	// (zero staleness).
	SyncUpdate UpdateMode = iota + 1
	// AsyncUpdate publishes to a JMS topic and returns immediately.
	AsyncUpdate
	// LeaseUpdate sits between the two: the writer returns immediately,
	// and everything committed inside a tick window is coalesced into one
	// last-writer delta per entity, pushed to each edge as a single RMI
	// message per window. Staleness is bounded by the window
	// (MaxStaleness, or an explicit BatchWindow).
	LeaseUpdate
)

func (m UpdateMode) String() string {
	switch m {
	case SyncUpdate:
		return "sync"
	case AsyncUpdate:
		return "async"
	case LeaseUpdate:
		return "lease"
	default:
		return fmt.Sprintf("UpdateMode(%d)", int(m))
	}
}

// ReplicaSpec is the extended-descriptor entry for a read-only replica of an
// entity bean (Section 5: "the extended deployment descriptor should
// identify the updater read-write bean and the method of update"). Every
// replica is push-refreshed: an update carries the new state, so reads stay
// local (Section 4.3).
type ReplicaSpec struct {
	// Bean is the read-write entity bean to replicate.
	Bean string
	// Update is the method of update: sync, async or lease. With
	// BatchWindow it resolves to the Pusher's (transport, window) pair.
	Update UpdateMode
	// MaxStaleness, when positive, bounds how stale a replica read may be:
	// entries older than this refresh through the fetch path even if no
	// invalidation arrived (the "application-specific relaxed consistency
	// parameters" the paper's Section 5 points at, in the spirit of TACT).
	// It is the safety net for lost asynchronous pushes.
	MaxStaleness time.Duration
	// DeltaPush propagates only changed fields (Section 4.3's "transfer
	// only the changes" optimization).
	DeltaPush bool
	// BatchWindow, when positive, batches and coalesces pushes per
	// (destination, window): async publishes collapse into one topic
	// message per window, lease pushes into one RMI message per edge per
	// window. A lease without an explicit window derives one from
	// MaxStaleness. Not meaningful for SyncUpdate (the writer blocks per
	// commit by definition).
	BatchWindow time.Duration
	// Partition, when set, shards the bean's key space: each edge replica
	// holds (and receives pushes for) only its assigned partitions instead
	// of the full key set. nil keeps the paper's full replication.
	Partition *PartitionSpec
}

// CachedQuerySpec is the extended-descriptor entry for one cached query:
// its name, which entity beans' writes invalidate it, and how it is
// refreshed.
type CachedQuerySpec struct {
	// Name is the query's cache-key prefix (keys are "<Name>:<param>").
	Name string
	// InvalidatedBy lists read-write beans whose updates affect the query.
	InvalidatedBy []string
	// View, when set, selects push refresh: the main server keeps the
	// query's results current at every commit of an invalidating bean and
	// the edges install them as the update arrives. Nil selects pull
	// refresh: the update marks the query's entries stale and the next read
	// re-fetches.
	View *QueryView
}

// ExtendedDescriptor is the paper's proposed deployment-descriptor
// extension: it declaratively requests read-only replicas, query caches and
// the edge façades served from them, so the container infrastructure wires
// the update machinery and the façades' pattern branches itself instead of
// the application programmer (pattern implementation automation, Section
// 5). core.AutoWire consumes it.
type ExtendedDescriptor struct {
	// Replicas to materialize on each edge server.
	Replicas []ReplicaSpec
	// CachedQueries to materialize in edge query caches.
	CachedQueries []CachedQuerySpec
	// Topic names the JMS topic for async update propagation.
	Topic string
	// EdgeFacades to deploy on every edge, each method served by its kind.
	EdgeFacades []EdgeFacadeSpec
}

// ErrBadDescriptor reports an invalid extended descriptor.
var ErrBadDescriptor = errors.New("container: invalid extended descriptor")

// Validate checks internal consistency of the extended descriptor.
func (d *ExtendedDescriptor) Validate() error {
	seen := make(map[string]bool, len(d.Replicas))
	for _, r := range d.Replicas {
		if r.Bean == "" {
			return fmt.Errorf("%w: replica with empty bean", ErrBadDescriptor)
		}
		if seen[r.Bean] {
			return fmt.Errorf("%w: duplicate replica for bean %s", ErrBadDescriptor, r.Bean)
		}
		seen[r.Bean] = true
		// A zero-valued mode means the descriptor author forgot the field
		// entirely — report that as its own error instead of folding it
		// into "unknown", so the fix ("set Update") is obvious.
		if r.Update == 0 {
			return fmt.Errorf("%w: replica %s: update mode not set", ErrBadDescriptor, r.Bean)
		}
		switch r.Update {
		case SyncUpdate, AsyncUpdate, LeaseUpdate:
		default:
			return fmt.Errorf("%w: replica %s: unknown update mode", ErrBadDescriptor, r.Bean)
		}
		if r.Update == AsyncUpdate && d.Topic == "" {
			return fmt.Errorf("%w: replica %s: async update requires a topic", ErrBadDescriptor, r.Bean)
		}
		if r.MaxStaleness < 0 {
			return fmt.Errorf("%w: replica %s: negative max staleness", ErrBadDescriptor, r.Bean)
		}
		if r.BatchWindow < 0 {
			return fmt.Errorf("%w: replica %s: negative batch window", ErrBadDescriptor, r.Bean)
		}
		if r.Update == LeaseUpdate && r.MaxStaleness <= 0 && r.BatchWindow <= 0 {
			return fmt.Errorf("%w: replica %s: lease update needs a staleness budget (MaxStaleness or BatchWindow)", ErrBadDescriptor, r.Bean)
		}
		if r.Update == SyncUpdate && r.BatchWindow > 0 {
			return fmt.Errorf("%w: replica %s: sync updates are unbatched (use a lease)", ErrBadDescriptor, r.Bean)
		}
		if err := r.Partition.Validate(); err != nil {
			return fmt.Errorf("replica %s: %w", r.Bean, err)
		}
	}
	qseen := make(map[string]bool, len(d.CachedQueries))
	for _, q := range d.CachedQueries {
		if q.Name == "" {
			return fmt.Errorf("%w: cached query with empty name", ErrBadDescriptor)
		}
		if qseen[q.Name] {
			return fmt.Errorf("%w: duplicate cached query %s", ErrBadDescriptor, q.Name)
		}
		qseen[q.Name] = true
		if q.View != nil && (q.View.Key == nil || q.View.Query == nil) {
			return fmt.Errorf("%w: cached query %s: a view needs Key and Query", ErrBadDescriptor, q.Name)
		}
		// Queries may be invalidated by beans without replicas; only empty
		// names are invalid.
		if slices.Contains(q.InvalidatedBy, "") {
			return fmt.Errorf("%w: cached query %s: empty invalidator", ErrBadDescriptor, q.Name)
		}
	}
	fseen := make(map[string]bool, len(d.EdgeFacades))
	for _, f := range d.EdgeFacades {
		if err := f.validate(seen, qseen, fseen); err != nil {
			return err
		}
	}
	return nil
}
