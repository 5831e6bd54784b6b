// Package planner is the deployment advisor: an analytic cost model plus an
// automated placement search over the paper's four distribution patterns
// (replicated web tier / remote façades, stateful component caching, query
// caching, asynchronous updates). The paper's stated long-term goal
// (Section 6) is automating the application of those patterns. Each
// application states its components once, as a Layout; the planner
// synthesizes the core.Plan any core.Policy places from it (the plan the
// application's Deploy validates), and from an application model — the
// layout plus page profiles, the application's render costs, the client
// mix its workload runs (ClientMix) and the substrate's calibration
// constants (see internal/experiment/calibrate.go) — predicts the mean
// response time of every pattern set in closed form over
//
//	rounds × RTT + payload/bandwidth + service time
//
// and searches them for the cheapest placement, pricing each class's
// session once per set. A page profile states only what its calls do on the
// main server; what a call costs from an edge comes from the edge façades
// the layout declares for the policy (Layout.EdgeFacades), and a write
// pushes when the policy replicates its bean. To plan for an observed page
// mix, search Model.WithObservedVisits.
package planner

import (
	"slices"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/workload"
)

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

// String is the pattern's short name: the policy with only this pattern
// renders as it.
func (f Feature) String() string { return f.With(core.Policy{}).Patterns() }

// In reports whether the pattern is enabled in p.
func (f Feature) In(p core.Policy) bool { return f.With(p) == p }

// With returns p with the pattern enabled.
func (f Feature) With(p core.Policy) core.Policy {
	switch f {
	case FeatureWeb:
		p.ReplicateWeb = true
	case FeatureEntities:
		p.EntityReplicas = true
	case FeatureQueries:
		p.QueryCaches = true
	case FeatureAsync:
		p.AsyncUpdates = true
	}
	return p
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
)

// active reports whether the rule puts the component on the edges under c.
func (r EdgeRule) active(c core.Policy) bool {
	switch r {
	case EdgeWithWeb:
		return c.ReplicateWeb
	case EdgeWithEntityReplicas:
		return c.ReplicateWeb && c.EntityReplicas
	case EdgeWithQueryCaches:
		return c.ReplicateWeb && c.QueryCaches
	}
	return false
}

// Component is one application bean plus its placement rule.
type Component struct {
	Desc container.Descriptor
	Rule EdgeRule
	// Edge declares how a façade's edge deployment serves each method; see
	// Layout.EdgeFacades.
	Edge []container.EdgeMethodSpec
}

// Facade is a remotely invocable session or message-driven bean placed on
// the edges by rule, where it serves the methods edge declares.
func Facade(name string, kind container.BeanKind, rule EdgeRule, edge ...container.EdgeMethodSpec) Component {
	return Component{Desc: container.Descriptor{Name: name, Kind: kind, Facade: true}, Rule: rule, Edge: edge}
}

// Entity is a local-only entity bean over table, pinned to the main server.
func Entity(name, table, pk string) Component {
	return Component{Desc: container.Descriptor{
		Name: name, Kind: container.Entity, Table: table, PKColumn: pk, LocalOnly: true,
	}}
}

// Pattern is a service usage pattern (Section 3.3): its name and the
// expected number of visits to each page per session, as ClientMix derives
// it from the pattern's session generator.
type Pattern struct {
	Name   string
	Visits map[string]float64
}

// Class is one client population: a usage pattern at one locality and its
// concurrent client count, its weight in the objective (Overall).
type Class struct {
	Pattern string
	Local   bool
	Clients int
}

// Page is the cost profile of one page: the stub calls its handler makes.
// Its rendering cost and response size are the application's
// container.PageCost for the page (Model.PageCosts).
type Page struct {
	Name string
	Body Op // handler ops; nil for a static page
}

// Layout is an application's component list: the one statement of its beans
// that the application deploys from and the planner prices, so the two
// cannot disagree on what a policy places where.
type Layout struct {
	App string // plan name ("petstore", "rubis")

	// Components are the application's beans in descriptor order; plan
	// synthesis preserves this order.
	Components []Component

	// Replicated lists the read-write entity beans that get read-only
	// edge replicas ("<name>RO") when EntityReplicas is enabled; the
	// replicas of those in Sharded hold a policy's partition slice.
	Replicated []string
	Sharded    []string
}

// DeployEntities deploys the layout's entity beans on d's main server and
// registers each with d.
func (l *Layout) DeployEntities(d *core.Deployment) error {
	for _, c := range l.Components {
		if c.Desc.Kind != container.Entity {
			continue
		}
		b, err := container.DeployRWEntity(d.Main, c.Desc.Name, c.Desc.Table, c.Desc.PKColumn)
		if err != nil {
			return err
		}
		d.RegisterRW(b)
	}
	return nil
}

// Descriptor is p's extended deployment descriptor, less its cached
// queries: the replicated beans pushed synchronously or, with asynchronous
// updates, over topic, the sharded ones partitioned per p, and the edge
// façades p places.
func (l *Layout) Descriptor(p core.Policy, topic string) *container.ExtendedDescriptor {
	ext := &container.ExtendedDescriptor{Topic: topic, EdgeFacades: l.EdgeFacades(p)}
	for _, bean := range l.Replicated {
		spec := container.ReplicaSpec{Bean: bean, Update: container.Propagation{Async: p.AsyncUpdates}}
		if slices.Contains(l.Sharded, bean) {
			spec.Partition = p.Partition
		}
		ext.Replicas = append(ext.Replicas, spec)
	}
	return ext
}

// EdgeFacades declares the edge façades p places: every component with
// edge methods whose rule puts it on the edges under p. Without query caches
// no edge holds a cache, and without DB replicas no edge holds a database, so
// a method that reads one is declared Delegate.
func (l *Layout) EdgeFacades(p core.Policy) []container.EdgeFacadeSpec {
	var out []container.EdgeFacadeSpec
	for _, c := range l.Components {
		if len(c.Edge) == 0 || !c.Rule.active(p) {
			continue
		}
		f := container.EdgeFacadeSpec{Bean: c.Desc.Name, Methods: slices.Clone(c.Edge)}
		for i, m := range f.Methods {
			if m.Query != "" && !p.QueryCaches || m.SQL != "" && !p.DBReplicas {
				f.Methods[i] = container.Delegate(m.Name)
			}
		}
		out = append(out, f)
	}
	return out
}

// Check returns nil when the application can deploy p: p is valid, and
// when p has DB replicas, an edge method p places reads them. Otherwise it
// returns a core.ErrPolicy naming p.
func (l *Layout) Check(p core.Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.DBReplicas && !container.ReadsEdgeDB(l.EdgeFacades(p)) {
		return p.Unsupported("no edge method it places reads a database replica")
	}
	return nil
}

// Model is everything the planner needs to know about one application.
type Model struct {
	*Layout
	Options core.Options // substrate knobs (RMI rounds, costs, topology)

	Patterns []Pattern
	Classes  []Class
	Pages    []Page

	// PageCosts are the render costs the application's web tier charges,
	// by page name; a page without one renders for free at the web
	// container's default response size.
	PageCosts map[string]container.PageCost
}

// visitSamples is the number of generated sessions ClientMix averages page
// weights over; the browser generators are stochastic, the writers' page
// sequences fixed.
const visitSamples = 8192

// ClientMix derives a model's usage patterns and client classes from the
// client-group template an application's Workload hands
// core.Deployment.ClientGroups, at the paper's population (core.PaperBrowsers
// and core.PaperWriters per group, one local group and
// core.PaperRemoteGroups remote ones): each pattern's page weights are the
// workload.ExpectedVisits of the generator its clients run, so the advisor
// and the driver share one definition of a session.
func ClientMix(tmpl workload.Group) ([]Pattern, []Class) {
	patterns := []Pattern{
		{Name: tmpl.BrowserPattern, Visits: workload.ExpectedVisits(tmpl.BrowserGen, visitSamples, 1)},
		{Name: tmpl.WriterPattern, Visits: workload.ExpectedVisits(tmpl.WriterGen, visitSamples, 1)},
	}
	var classes []Class
	for i, n := range []int{core.PaperBrowsers, core.PaperWriters} {
		classes = append(classes,
			Class{Pattern: patterns[i].Name, Local: true, Clients: n},
			Class{Pattern: patterns[i].Name, Local: false, Clients: core.PaperRemoteGroups * n})
	}
	return patterns, classes
}

// WithObservedVisits returns a copy of m whose per-pattern page-visit
// weights are redistributed according to observed visit shares — the shape
// trace.Profile.VisitShares exports from a traced run. Each pattern keeps
// its modeled visit total per session (so absolute cost scales stay
// comparable); only the split across pages moves to what the tracer actually
// saw. Patterns or pages absent from shares keep their modeled weights —
// the planner never drops a page just because sampling missed it — and empty
// shares return m itself.
func (m *Model) WithObservedVisits(shares map[string]map[string]float64) *Model {
	if len(shares) == 0 {
		return m
	}
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

// Op is one node of a page's cost profile. Evaluation is defined in cost.go.
type Op interface {
	cost(ev *Evaluator, at site) time.Duration
}

// Seq evaluates its children in order.
type Seq []Op

// Call is an invocation of a bean's business method. Body is the method's
// work on the main server. From main the call is local. From an edge it is a
// wide-area RMI of Body unless the policy places the bean on the edges; an
// edge façade then serves the method as Layout.EdgeFacades declares it, and
// a bean that declares no edge methods runs Body on the edge. Bean ""
// pins the callee to the main server (an explicit StubFor(main) in the
// handler).
type Call struct {
	Bean   string
	Method string
	Body   Op
}

// Read is a caller reading Beans straight from its edge's replicas: one hit
// per bean on an edge that replicates them all, Else otherwise.
type Read struct {
	Beans []string
	Else  Call
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

// Insert is a create of Bean: ejbStore plus an INSERT, plus the push to the
// edges when the policy replicates Bean.
type Insert struct {
	Bean string
}

// Update is a field update of Bean: the container loads the bean, then
// stores it (ejbLoad + SELECT + ejbStore + UPDATE), plus the push to the
// edges when the policy replicates Bean.
type Update struct {
	Bean string
}
