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

// Propagation is a replica's method of update, stated as the values its
// Pusher runs on (see the Pusher doc table). The zero value is the paper's
// blocking push: RMI to every edge inside the writer's commit.
type Propagation struct {
	// Async publishes to the descriptor's JMS topic instead of pushing over
	// RMI (Section 4.5).
	Async bool
	// Window, when positive, coalesces commits last-writer-wins and flushes
	// them once per window, off the writer's path: over RMI a lease, over
	// the topic one message per window.
	Window time.Duration
	// Delta propagates only changed fields (Section 4.3's "transfer only
	// the changes" optimization).
	Delta bool
	// MaxStaleness, when positive, bounds how stale a replica read may be:
	// entries older than this refresh through the fetch path even if no
	// update arrived (the "application-specific relaxed consistency
	// parameters" the paper's Section 5 points at, in the spirit of TACT).
	// It is the safety net for lost asynchronous pushes.
	MaxStaleness time.Duration
}

// ReplicaSpec is the extended-descriptor entry for a read-only replica of an
// entity bean (Section 5: "the extended deployment descriptor should
// identify the updater read-write bean and the method of update"). Every
// replica is push-refreshed: an update carries the new state, so reads stay
// local (Section 4.3).
type ReplicaSpec struct {
	// Bean is the read-write entity bean to replicate.
	Bean string
	// Update is the method of update.
	Update Propagation
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
		if r.Update.Async && d.Topic == "" {
			return fmt.Errorf("%w: replica %s: async update requires a topic", ErrBadDescriptor, r.Bean)
		}
		if r.Update.Window < 0 {
			return fmt.Errorf("%w: replica %s: negative window", ErrBadDescriptor, r.Bean)
		}
		if r.Update.MaxStaleness < 0 {
			return fmt.Errorf("%w: replica %s: negative max staleness", ErrBadDescriptor, r.Bean)
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
