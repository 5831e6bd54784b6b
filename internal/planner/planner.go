// Package planner is the deployment advisor: an analytic cost model plus an
// automated placement search over the paper's four distribution patterns
// (replicated web tier / remote façades, stateful component caching, query
// caching, asynchronous updates). The paper's stated long-term goal
// (Section 6) is automating the application of those patterns; today each
// application hand-codes one core.Plan per configuration. The planner closes
// that gap: from an application model — bean descriptors, page profiles,
// session mixes and the substrate's calibration constants (see
// internal/experiment/calibrate.go) — it predicts the mean response time of
// any candidate placement in closed form over
//
//	rounds × RTT + payload/bandwidth + service time
//
// and searches the candidate space for the cheapest plan, emitting a
// core.Plan that passes Plan.Validate().
package planner

import (
	"sort"
	"strings"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
)

// Candidate is one point in the placement search space: which of the four
// distribution patterns are applied. The paper's five cumulative
// configurations are five of the eight valid combinations.
type Candidate struct {
	// ReplicateWeb replicates web components and stateful session beans to
	// the edge servers behind remote façades (Sections 4.2–4.3).
	ReplicateWeb bool

	// EntityReplicas deploys read-only entity-bean replicas on the edges
	// (stateful component caching, Section 4.3). Requires ReplicateWeb.
	EntityReplicas bool

	// QueryCaches deploys query caches on the edges (Section 4.4).
	// Requires ReplicateWeb.
	QueryCaches bool

	// AsyncUpdates propagates writes to edge caches through JMS instead of
	// blocking wide-area pushes (Section 4.5). Requires a cache to update.
	AsyncUpdates bool
}

// Valid reports whether the combination respects the pattern dependencies:
// caches need an edge web tier to serve from, and asynchronous updates need
// a cache to update.
func (c Candidate) Valid() bool {
	if (c.EntityReplicas || c.QueryCaches) && !c.ReplicateWeb {
		return false
	}
	if c.AsyncUpdates && !c.EntityReplicas && !c.QueryCaches {
		return false
	}
	return true
}

// features returns the enabled patterns in ladder order.
func (c Candidate) features() []Feature {
	var out []Feature
	for _, f := range Features {
		if c.Has(f) {
			out = append(out, f)
		}
	}
	return out
}

// String renders the candidate compactly, e.g. "web+entities+queries+async"
// or "none" for the centralized placement.
func (c Candidate) String() string {
	fs := c.features()
	if len(fs) == 0 {
		return "none"
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, "+")
}

// Config maps the candidate onto the paper's cumulative configuration that
// deploys exactly these patterns, if one exists: the five paper
// configurations are the prefixes of the ladder W ⊂ W+E ⊂ W+E+Q ⊂ W+E+Q+A.
func (c Candidate) Config() (core.ConfigID, bool) {
	switch c {
	case Candidate{}:
		return core.Centralized, true
	case Candidate{ReplicateWeb: true}:
		return core.RemoteFacade, true
	case Candidate{ReplicateWeb: true, EntityReplicas: true}:
		return core.StatefulCaching, true
	case Candidate{ReplicateWeb: true, EntityReplicas: true, QueryCaches: true}:
		return core.QueryCaching, true
	case Candidate{ReplicateWeb: true, EntityReplicas: true, QueryCaches: true, AsyncUpdates: true}:
		return core.AsyncUpdates, true
	}
	return 0, false
}

// Has reports whether a feature is enabled.
func (c Candidate) Has(f Feature) bool {
	switch f {
	case FeatureWeb:
		return c.ReplicateWeb
	case FeatureEntities:
		return c.EntityReplicas
	case FeatureQueries:
		return c.QueryCaches
	case FeatureAsync:
		return c.AsyncUpdates
	}
	return false
}

// With returns the candidate with one more feature enabled.
func (c Candidate) With(f Feature) Candidate {
	switch f {
	case FeatureWeb:
		c.ReplicateWeb = true
	case FeatureEntities:
		c.EntityReplicas = true
	case FeatureQueries:
		c.QueryCaches = true
	case FeatureAsync:
		c.AsyncUpdates = true
	}
	return c
}

// Feature is one rung of the pattern ladder.
type Feature int

// The four distribution patterns, in the paper's presentation order.
const (
	FeatureWeb Feature = iota
	FeatureEntities
	FeatureQueries
	FeatureAsync
)

// Features lists all four patterns in ladder order.
var Features = []Feature{FeatureWeb, FeatureEntities, FeatureQueries, FeatureAsync}

func (f Feature) String() string {
	switch f {
	case FeatureWeb:
		return "web"
	case FeatureEntities:
		return "entities"
	case FeatureQueries:
		return "queries"
	case FeatureAsync:
		return "async"
	}
	return "unknown"
}

// Candidates enumerates the valid combinations (eight for the full ladder),
// ordered by feature count and then ladder position, so search output is
// deterministic.
func Candidates() []Candidate {
	var out []Candidate
	for bits := 0; bits < 16; bits++ {
		c := Candidate{
			ReplicateWeb:   bits&1 != 0,
			EntityReplicas: bits&2 != 0,
			QueryCaches:    bits&4 != 0,
			AsyncUpdates:   bits&8 != 0,
		}
		if c.Valid() {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		ni, nj := len(out[i].features()), len(out[j].features())
		if ni != nj {
			return ni < nj
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// EdgeRule says when a component is deployed on the edge servers (it is
// always deployed on main): never, with the replicated web tier, or only
// once the cache it serves from exists.
type EdgeRule int

// Edge deployment rules, from most to least restrictive.
const (
	EdgeNever              EdgeRule = iota // pinned to the main server
	EdgeWithWeb                            // replicated with the web tier
	EdgeWithEntityReplicas                 // needs entity-bean replicas
	EdgeWithQueryCaches                    // needs query caches
	EdgeWithAnyCache                       // needs either cache kind
)

// active reports whether the rule puts the component on the edges under c.
func (r EdgeRule) active(c Candidate) bool {
	switch r {
	case EdgeWithWeb:
		return c.ReplicateWeb
	case EdgeWithEntityReplicas:
		return c.ReplicateWeb && c.EntityReplicas
	case EdgeWithQueryCaches:
		return c.ReplicateWeb && c.QueryCaches
	case EdgeWithAnyCache:
		return c.ReplicateWeb && (c.EntityReplicas || c.QueryCaches)
	}
	return false
}

// Component is one application bean plus its placement rule.
type Component struct {
	Desc container.Descriptor
	Rule EdgeRule
}

// Pattern is a service usage pattern (Section 3.3): its name and the
// expected number of visits to each page per session, as produced by
// workload.ExpectedVisits over the pattern's session generator.
type Pattern struct {
	Name   string
	Visits map[string]float64
}

// Class is one client population: a usage pattern at one locality, weighted
// by its concurrent client count. Soft think-time pacing makes every client
// issue requests at the same rate, so the overall objective weights session
// means by client count.
type Class struct {
	Pattern string
	Local   bool
	Clients int
}

// Page is the cost profile of one page: the stub calls its handler makes
// (Body), its rendering cost and its response size.
type Page struct {
	Name      string
	RenderCPU time.Duration // JSP/servlet CPU burst, charged on the web server
	RenderLat time.Duration // non-CPU latency (logging, connection handling)
	Bytes     int           // response size (0 = web container default)
	Body      Op            // handler ops; nil for a static page
}

// Model is everything the planner needs to know about one application.
type Model struct {
	App       string       // plan name ("petstore", "rubis")
	Options   core.Options // substrate knobs (RMI rounds, costs, topology)
	PushBytes int          // replica-refresh push payload (WireOptions.PushBytes)

	// Components are the application's beans in descriptor order; plan
	// synthesis preserves this order.
	Components []Component

	// Replicated lists the read-write entity beans that get read-only
	// edge replicas ("<name>RO") when EntityReplicas is enabled.
	Replicated []string

	Patterns []Pattern
	Classes  []Class
	Pages    []Page
}

// component looks a bean up by name, or returns nil.
func (m *Model) component(name string) *Component {
	for i := range m.Components {
		if m.Components[i].Desc.Name == name {
			return &m.Components[i]
		}
	}
	return nil
}

// WithObservedVisits returns a copy of m whose per-pattern page-visit
// weights are redistributed according to observed visit shares — the shape
// trace.Profile.VisitShares exports from a traced run. Each pattern keeps
// its modeled visit total per session (so absolute cost scales stay
// comparable); only the split across pages moves to what the tracer actually
// saw. Patterns or pages absent from shares keep their modeled weights —
// the planner never drops a page just because sampling missed it.
func (m *Model) WithObservedVisits(shares map[string]map[string]float64) *Model {
	out := *m
	out.Patterns = make([]Pattern, len(m.Patterns))
	for i, pat := range m.Patterns {
		out.Patterns[i] = pat
		obs := shares[pat.Name]
		if len(obs) == 0 {
			continue
		}
		var modeled, observed float64
		for _, v := range pat.Visits {
			modeled += v
		}
		for _, s := range obs {
			observed += s
		}
		if modeled <= 0 || observed <= 0 {
			continue
		}
		visits := make(map[string]float64, len(pat.Visits))
		for page, v := range pat.Visits {
			if s, ok := obs[page]; ok {
				visits[page] = s / observed * modeled
			} else {
				visits[page] = v
			}
		}
		out.Patterns[i].Visits = visits
	}
	return &out
}

// pattern looks a usage pattern up by name, or returns nil.
func (m *Model) pattern(name string) *Pattern {
	for i := range m.Patterns {
		if m.Patterns[i].Name == name {
			return &m.Patterns[i]
		}
	}
	return nil
}

// beanAtEdge reports whether a bean is deployed on the edge servers under c.
func (m *Model) beanAtEdge(name string, c Candidate) bool {
	if comp := m.component(name); comp != nil {
		return comp.Rule.active(c)
	}
	return false
}

// Ctx is the evaluation context of an op: the candidate under evaluation and
// whether the op runs on an edge server (false: the main server).
type Ctx struct {
	C      Candidate
	AtEdge bool
}

// Cond is a candidate/site predicate used by conditional ops.
type Cond func(ctx Ctx) bool

// AtEdge is true when the op runs on an edge server.
func AtEdge(ctx Ctx) bool { return ctx.AtEdge }

// HasEntityReplicas is true when entity-bean replicas are deployed.
func HasEntityReplicas(ctx Ctx) bool { return ctx.C.EntityReplicas }

// HasQueryCaches is true when query caches are deployed.
func HasQueryCaches(ctx Ctx) bool { return ctx.C.QueryCaches }

// HasAnyCache is true when either cache kind is deployed.
func HasAnyCache(ctx Ctx) bool { return ctx.C.EntityReplicas || ctx.C.QueryCaches }

// EdgeHit is true when the op runs on an edge that holds entity replicas —
// the condition under which a read is served from a local read-only bean.
func EdgeHit(ctx Ctx) bool { return ctx.AtEdge && ctx.C.EntityReplicas }

// EdgeCached is true when the op runs on an edge that holds query caches.
func EdgeCached(ctx Ctx) bool { return ctx.AtEdge && ctx.C.QueryCaches }

// Op is one node of a page's cost profile. Evaluation is defined in cost.go.
type Op interface {
	cost(ev *Evaluator, ctx Ctx) time.Duration
}

// Seq evaluates its children in order.
type Seq []Op

// Call is a business-method invocation on a bean. The callee site is
// resolved from the component's EdgeRule: the call is local when the bean is
// co-located with the caller, a wide-area RMI otherwise. Bean "" pins the
// callee to the main server (an explicit StubFor(main) in the handler).
type Call struct {
	Bean       string
	Req, Reply int // payload sizes; 0 selects the RMI defaults
	Body       Op  // work performed by the method, at the callee's site
}

// SQL is one statement executed over JDBC against the database node.
type SQL struct {
	Scan  int // rows examined
	Write int // rows inserted/updated
	Out   int // rows returned
}

// Load is an entity-bean ejbLoad: field marshalling plus a primary-key
// SELECT (scan 1, return 1).
type Load struct{}

// Insert is an entity-bean create: ejbStore plus an INSERT, plus cache
// propagation when Push holds for the candidate.
type Insert struct {
	Push Cond
}

// Update is an entity-bean field update: the container loads the bean, then
// stores it (ejbLoad + SELECT + ejbStore + UPDATE), plus cache propagation
// when Push holds for the candidate.
type Update struct {
	Push Cond
}

// Hit is a read served from a read-only bean replica or query cache.
type Hit struct{}

// CPUTime is a raw service-time burst at the current site.
type CPUTime time.Duration

// If selects between two subtrees on a candidate/site predicate. Else may
// be nil.
type If struct {
	Cond       Cond
	Then, Else Op
}
