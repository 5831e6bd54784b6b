package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"wadeploy/internal/container"
)

// Policy is one placement of an application across a deployment: which of
// the paper's four distribution patterns apply, whether edge database
// replicas absorb the reads the patterns leave behind, and how the replicated
// hot entities are sharded. Applications deploy from it (one Deploy per
// application), the planner ranks it and the re-placement controller extends
// toward it. It is comparable: two policies are equal when they place the
// same way.
type Policy struct {
	// ReplicateWeb replicates web components and stateful session beans to
	// the edge servers behind remote façades (Sections 4.2–4.3).
	ReplicateWeb bool

	// EntityReplicas deploys read-only entity-bean replicas on the edges
	// (stateful component caching, Section 4.3). Requires ReplicateWeb.
	EntityReplicas bool

	// QueryCaches deploys query caches on the edges (Section 4.4). Requires
	// EntityReplicas, whose update pushes keep the caches fresh.
	QueryCaches bool

	// AsyncUpdates propagates writes to edge caches through JMS instead of
	// blocking wide-area pushes (Section 4.5). Requires EntityReplicas.
	AsyncUpdates bool

	// DBReplicas streams committed statements to a database replica on
	// every edge, so reads the patterns leave behind (the keyword Search)
	// run locally: the "orthogonal technique" of Section 6.
	DBReplicas bool

	// Partition shards the replicated hot entities' key space; nil keeps
	// the paper's full replication. Partitions are assigned round-robin
	// over the deployment's edges.
	Partition *container.PartitionSpec
}

// The five configurations of Section 4, in order of application, plus the
// DBReplication extension.
var (
	Centralized     = Policy{}
	RemoteFacade    = Policy{ReplicateWeb: true}
	StatefulCaching = Policy{ReplicateWeb: true, EntityReplicas: true}
	QueryCaching    = Policy{ReplicateWeb: true, EntityReplicas: true, QueryCaches: true}
	AsyncUpdates    = Policy{ReplicateWeb: true, EntityReplicas: true, QueryCaches: true, AsyncUpdates: true}
	DBReplication   = Policy{ReplicateWeb: true, EntityReplicas: true, QueryCaches: true, AsyncUpdates: true, DBReplicas: true}
)

// Configs lists the paper's configurations in order (the DBReplication
// extension is excluded so Tables 6-7 keep the paper's five rows; see
// ExtensionConfigs).
var Configs = []Policy{Centralized, RemoteFacade, StatefulCaching, QueryCaching, AsyncUpdates}

// ExtensionConfigs lists configurations beyond the paper's evaluation.
var ExtensionConfigs = []Policy{DBReplication}

// names is the one name table: a policy is named by its pattern set (plus
// DB replicas) alone, whatever its partitioning.
var names = []struct {
	p           Policy
	name, title string
}{
	{Centralized, "centralized", "Centralized application"},
	{RemoteFacade, "remote-facade", "Remote façade"},
	{StatefulCaching, "stateful-caching", "Stateful component caching"},
	{QueryCaching, "query-caching", "Query caching"},
	{AsyncUpdates, "async-updates", "Asynchronous updates"},
	{DBReplication, "db-replication", "DB replication (ext)"},
}

// named looks p's pattern set up in the name table.
func (p Policy) named() (name, title string, ok bool) {
	p.Partition = nil
	for _, n := range names {
		if n.p == p {
			return n.name, n.title, true
		}
	}
	return "", "", false
}

// Name returns the name of the paper configuration that applies exactly p's
// patterns, if one does.
func (p Policy) Name() (string, bool) {
	name, _, ok := p.named()
	return name, ok
}

// String is the configuration name, or Patterns for a combination the paper
// did not name.
func (p Policy) String() string {
	if name, _, ok := p.named(); ok {
		return name
	}
	return p.Patterns()
}

// Title returns the paper's section heading for the configuration, or
// Patterns for a combination the paper did not name.
func (p Policy) Title() string {
	if _, title, ok := p.named(); ok {
		return title
	}
	return p.Patterns()
}

// enabled lists the short names of p's patterns in ladder order.
func (p Policy) enabled() []string {
	var out []string
	for _, f := range [...]struct {
		on   bool
		name string
	}{
		{p.ReplicateWeb, "web"}, {p.EntityReplicas, "entities"}, {p.QueryCaches, "queries"},
		{p.AsyncUpdates, "async"}, {p.DBReplicas, "db"},
	} {
		if f.on {
			out = append(out, f.name)
		}
	}
	return out
}

// Patterns renders the enabled patterns compactly in ladder order, e.g.
// "web+entities+queries+async", or "none" for the centralized placement.
func (p Policy) Patterns() string {
	if e := p.enabled(); len(e) > 0 {
		return strings.Join(e, "+")
	}
	return "none"
}

// Valid reports whether p respects the pattern dependencies, each pattern
// built on the one before it: entity replicas need an edge web tier to serve
// from, query caches are kept fresh by the entity replicas' update pushes,
// asynchronous updates carry those pushes, and DB replicas are attached by
// the replica bundle's wiring.
func (p Policy) Valid() bool {
	switch {
	case p.EntityReplicas && !p.ReplicateWeb:
		return false
	case (p.QueryCaches || p.AsyncUpdates || p.DBReplicas) && !p.EntityReplicas:
		return false
	}
	return true
}

// ErrPolicy reports a policy that breaks a pattern dependency or that an
// application cannot deploy.
var ErrPolicy = errors.New("core: policy cannot be deployed")

// Validate returns nil when p is Valid and its partition spec is well formed,
// otherwise an ErrPolicy naming p.
func (p Policy) Validate() error {
	if !p.Valid() {
		return p.Unsupported("it breaks a pattern dependency (entity replicas need edge web components, query caches, async updates and DB replicas need entity replicas)")
	}
	if err := p.Partition.Validate(); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrPolicy, p.describe(), err)
	}
	return nil
}

// Unsupported returns an ErrPolicy naming p and why it cannot be deployed.
func (p Policy) Unsupported(why string) error {
	return fmt.Errorf("%w: %s: %s", ErrPolicy, p.describe(), why)
}

// describe names p in full: its patterns and partitioning.
func (p Policy) describe() string {
	desc := p.String()
	if s := p.Partition; s != nil {
		desc += fmt.Sprintf(", %d partitions", s.Partitions)
	}
	return desc
}

// PatternSets enumerates the valid pattern combinations, ordered by pattern
// count and then by Patterns, so search output is deterministic. The
// dependencies leave six of the four patterns' sixteen: centralized, web,
// web+entities, and web+entities with query caches, async updates or both.
func PatternSets() []Policy {
	var out []Policy
	for bits := 0; bits < 16; bits++ {
		p := Policy{
			ReplicateWeb:   bits&1 != 0,
			EntityReplicas: bits&2 != 0,
			QueryCaches:    bits&4 != 0,
			AsyncUpdates:   bits&8 != 0,
		}
		if p.Valid() {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		ni, nj := len(out[i].enabled()), len(out[j].enabled())
		if ni != nj {
			return ni < nj
		}
		return out[i].Patterns() < out[j].Patterns()
	})
	return out
}
