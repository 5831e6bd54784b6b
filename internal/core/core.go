// Package core implements the paper's primary contribution: the machinery
// for distributing a component-based application across a wide-area
// deployment according to a small set of design rules. A placement is one
// Policy value — which distribution patterns apply and how the hot entities
// are partitioned — and the paper's five incremental configurations
// (Section 4) are five named policies:
//
//  1. Centralized — everything on the main server.
//  2. RemoteFacade — web components and stateful session beans replicated to
//     edge servers; shared state reached through façades in one RMI call,
//     with EJBHomeFactory stub caching.
//  3. StatefulCaching — read-only entity-bean replicas on the edges with a
//     blocking push from the read-write beans (read-mostly pattern, zero
//     staleness).
//  4. QueryCaching — aggregate-query result caches on the edges.
//  5. AsyncUpdates — blocking pushes replaced by a JMS topic and
//     message-driven update subscribers.
//
// The package also provides the Section 5 pieces: design-rule validation
// (only façades may be invoked remotely; everything else is local-only) and
// AutoWire, which materializes replicas, updater façades, topics and MDB
// subscribers from an extended deployment descriptor so applications do not
// hand-implement the update machinery. AutoWire installs the bundle on the
// servers its caller names — every edge for a static deployment, none for
// one the re-placement controller extends — and Wiring.ExtendTo installs it
// on one more server at a time while traffic flows.
package core

import (
	"errors"
	"fmt"

	"wadeploy/internal/container"
	"wadeploy/internal/jms"
	"wadeploy/internal/metrics"
	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

// Deployment is a wide-area deployment: one main application server
// (co-located with the database) and edge application servers on a
// simnet.Hierarchy — by default the paper's star — sharing an RMI runtime and
// a JMS provider.
type Deployment struct {
	Env   *sim.Env
	Net   *simnet.Network
	DB    *sqldb.DB
	RMI   *rmi.Runtime
	JMS   *jms.Provider
	Main  *container.Server
	Edges []*container.Server

	// Resilience echoes Options.Resilience so AutoWire can apply the
	// staleness-fallback pieces to the replicas it materializes.
	Resilience bool

	// Propagation echoes Options.Propagation so AutoWire can put it in
	// place of every replica's method of update.
	Propagation *container.Propagation

	rw map[string]*container.RWEntity

	topo *simnet.Hierarchy
	// byClient maps each client-group node to its collocated server.
	byClient map[string]*container.Server
}

// Options configures a deployment.
type Options struct {
	RMI      rmi.Options // Rounds; Resilient follows Resilience
	Web      web.Options
	Topology simnet.HierarchySpec // the zero value is the paper's Fig. 2 star

	// Resilience arms the WAN-degradation machinery across the substrate:
	// RMI retries/breakers and JMS redelivery at their packages' constant
	// policies, best-effort pushes, and serve-stale bounds on AutoWired
	// replicas and caches (resilience.go). Off (the default) keeps strict
	// semantics and byte-identical metric output.
	Resilience bool

	// Propagation, when non-nil, replaces every replica spec's method of
	// update (the consistency spectrum sweeps one workload across them).
	// Nil (the default) keeps each descriptor's own and byte-identical
	// table output.
	Propagation *container.Propagation
}

// DefaultOptions returns the substrate defaults.
func DefaultOptions() Options {
	return Options{RMI: rmi.DefaultOptions, Web: web.DefaultOptions}
}

// NewPaperDeployment builds a deployment on opts.Topology — left zero, the
// Fig. 2 testbed: three application servers in a star around a router (100 ms
// each-way WAN), the database on the main server's LAN, a JMS provider on the
// main server, and client-group nodes.
func NewPaperDeployment(env *sim.Env, opts Options) (*Deployment, error) {
	d, _, err := buildDeployment(env, opts)
	return d, err
}

// NewHierarchicalDeployment is NewPaperDeployment on an explicit topology; it
// also returns the hierarchy, which fault schedules and sweeps navigate.
func NewHierarchicalDeployment(env *sim.Env, opts Options, spec simnet.HierarchySpec) (*Deployment, *simnet.Hierarchy, error) {
	opts.Topology = spec
	return buildDeployment(env, opts)
}

// buildDeployment builds opts.Topology and puts one application server on main
// and on every edge (hubs route but host nothing), with the database and the
// JMS provider on main.
func buildDeployment(env *sim.Env, opts Options) (*Deployment, *simnet.Hierarchy, error) {
	h, err := simnet.BuildHierarchy(env, opts.Topology)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	db := sqldb.New()
	InstrumentDB(env.Metrics(), db)
	opts.RMI.Resilient = opts.Resilience
	rt := rmi.NewRuntime(h.Net, opts.RMI)
	provider, err := jms.NewProvider(h.Net, simnet.NodeMain, opts.Resilience)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	d := &Deployment{
		Env:         env,
		Net:         h.Net,
		DB:          db,
		RMI:         rt,
		JMS:         provider,
		Resilience:  opts.Resilience,
		Propagation: opts.Propagation,
		rw:          make(map[string]*container.RWEntity),
		topo:        h,
		byClient:    make(map[string]*container.Server),
	}
	for _, name := range h.ServerNodes() {
		srv, err := container.NewServer(container.Config{
			Name:   name,
			DBNode: simnet.NodeDB,
			DB:     db,
			Net:    h.Net,
			RMI:    rt,
			JMS:    provider,
			Web:    opts.Web,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("core: server %s: %w", name, err)
		}
		if name == simnet.NodeMain {
			d.Main = srv
		} else {
			d.Edges = append(d.Edges, srv)
		}
		d.byClient[h.ClientNode(name)] = srv
	}
	return d, h, nil
}

// InstrumentDB attaches a statement observer to db that mirrors every
// executed statement into reg: totals by verb and table, row-volume
// counters, and index-vs-full-scan counts for the access-path statements
// (select/update). The observer runs under the database lock, so it
// only increments pre-registered counters.
func InstrumentDB(reg *metrics.Registry, db *sqldb.DB) {
	total := reg.Counter("sqldb_statements_total")
	byVerb := reg.CounterVec("sqldb_statements_total", "verb")
	byTable := reg.CounterVec("sqldb_table_statements_total", "table")
	scanned := reg.Counter("sqldb_rows_scanned_total")
	written := reg.Counter("sqldb_rows_written_total")
	returned := reg.Counter("sqldb_rows_returned_total")
	indexScans := reg.Counter("sqldb_index_scans_total")
	fullScans := reg.Counter("sqldb_full_scans_total")
	// Physical execution counters: Scanned above is the cost model's
	// (virtual) figure, scannedActual counts rows the engine really touched
	// after index narrowing and early termination.
	scannedActual := reg.Counter("sqldb_rows_scanned_actual_total")
	actualByTable := reg.CounterVec("sqldb_rows_scanned_actual_total", "table")
	probes := reg.Counter("sqldb_index_probes_total")
	probesByTable := reg.CounterVec("sqldb_index_probes_total", "table")
	planHits := reg.Counter("sqldb_plan_cache_hits_total")
	planHitsByVerb := reg.CounterVec("sqldb_plan_cache_hits_total", "verb")
	planMisses := reg.Counter("sqldb_plan_cache_misses_total")
	planMissesByVerb := reg.CounterVec("sqldb_plan_cache_misses_total", "verb")
	// A statement's labelled children are resolved once per prepared
	// statement, in the order the first statement of its (verb, table)
	// reaches them: a plan-cache child only exists once a statement of that
	// verb has hit or missed.
	type stmtCounters struct {
		byVerb, byTable, actualByTable, probesByTable *metrics.Counter
		planHitsByVerb, planMissesByVerb              *metrics.Counter
	}
	resolved := make(map[*sqldb.StmtID]*stmtCounters)
	db.SetObserver(func(st sqldb.StatementInfo) {
		c := resolved[st.Stmt]
		if c == nil {
			c = &stmtCounters{byVerb: byVerb.With(st.Verb)}
			if st.Table != "" {
				c.byTable = byTable.With(st.Table)
				c.actualByTable = actualByTable.With(st.Table)
				c.probesByTable = probesByTable.With(st.Table)
			}
			resolved[st.Stmt] = c
		}
		total.Inc()
		c.byVerb.Inc()
		scanned.Add(int64(st.Scanned))
		written.Add(int64(st.Written))
		returned.Add(int64(st.Returned))
		scannedActual.Add(int64(st.ScannedActual))
		probes.Add(int64(st.IndexProbes))
		if c.byTable != nil {
			c.byTable.Inc()
			c.actualByTable.Add(int64(st.ScannedActual))
			c.probesByTable.Add(int64(st.IndexProbes))
		}
		// Planned marks the access-path verbs: select and update.
		if !st.Planned {
			return
		}
		if st.PlanHit {
			if c.planHitsByVerb == nil {
				c.planHitsByVerb = planHitsByVerb.With(st.Verb)
			}
			planHits.Inc()
			c.planHitsByVerb.Inc()
		} else {
			if c.planMissesByVerb == nil {
				c.planMissesByVerb = planMissesByVerb.With(st.Verb)
			}
			planMisses.Inc()
			c.planMissesByVerb.Inc()
		}
		if st.IndexUsed {
			indexScans.Inc()
		} else {
			fullScans.Inc()
		}
	})
}

// Servers returns main followed by the edge servers.
func (d *Deployment) Servers() []*container.Server {
	out := make([]*container.Server, 0, 1+len(d.Edges))
	out = append(out, d.Main)
	return append(out, d.Edges...)
}

// EdgeNames lists the edge servers by name, in deployment order.
func (d *Deployment) EdgeNames() []string {
	out := make([]string, len(d.Edges))
	for i, e := range d.Edges {
		out[i] = e.Name()
	}
	return out
}

// WebServers returns the servers that host web components and session beans
// under p: every server when the web tier is replicated to the edges,
// otherwise main alone.
func (d *Deployment) WebServers(p Policy) []*container.Server {
	if p.ReplicateWeb {
		return d.Servers()
	}
	return []*container.Server{d.Main}
}

// ServerFor returns the application server a client group should talk to
// under p: its collocated server when the web tier is replicated to the
// edges, otherwise the main server.
func (d *Deployment) ServerFor(clientNode string, p Policy) *container.Server {
	if !p.ReplicateWeb {
		return d.Main
	}
	if s := d.byClient[clientNode]; s != nil {
		return s
	}
	return d.Main
}

// ClientNodeOf returns the client-group node collocated with a server node
// ("" when the server has no local client group).
func (d *Deployment) ClientNodeOf(server string) string { return d.topo.ClientNode(server) }

// FacadeStub resolves the façade bean srv calls: its own when one is
// deployed there, otherwise main's (EJBHomeFactory caching either way).
func (d *Deployment) FacadeStub(p *sim.Proc, srv *container.Server, bean string) (*rmi.Stub, error) {
	target := d.Main.Name()
	if srv.HasBean(bean) {
		target = srv.Name()
	}
	return srv.StubFor(p, target, bean)
}

// FetchState is the façade method a replica's fetch path calls
// (container.FetchFrom): it loads one entity of a registered read-write bean,
// named by the first argument, at the key in the second, into the caller's
// Row record.
func (d *Deployment) FetchState(p *sim.Proc, inv *container.Invocation) (any, error) {
	bean := inv.Args[0].AsString()
	rw := d.RW(bean)
	if rw == nil {
		return nil, fmt.Errorf("core: fetchState: %w: %s", container.ErrNoSuchBean, bean)
	}
	row, err := rw.Load(p, inv.Args[1])
	return container.Reply(inv, row, err)
}

// RegisterRW records a deployed read-write entity bean so AutoWire can
// attach propagation to it.
func (d *Deployment) RegisterRW(b *container.RWEntity) {
	d.rw[b.Name()] = b
}

// RW returns a registered read-write entity bean, or nil.
func (d *Deployment) RW(name string) *container.RWEntity { return d.rw[name] }

// ErrDesignRule reports a violation of the paper's design rules.
var ErrDesignRule = errors.New("core: design rule violation")

// Placement assigns one bean descriptor to the servers it is deployed on.
type Placement struct {
	Desc    container.Descriptor
	Servers []string
}

// Plan is a whole application's placement map, validated against the
// paper's design rules before deployment.
type Plan struct {
	App        string
	Placements []Placement
}

// Validate enforces the Section 5 design rules:
//
//   - entity beans expose only local interfaces (never remotely invocable);
//   - every remotely invocable bean is a façade (session or message-driven);
//   - every bean is either a façade or local-only — there is no third kind,
//     which is what prevents edge components from reaching core shared
//     state directly;
//   - façades that front shared state must be deployed on the server that
//     holds that state (captured here as: façades must be placed somewhere).
func (pl *Plan) Validate() error {
	if len(pl.Placements) == 0 {
		return fmt.Errorf("%w: plan %s has no placements", ErrDesignRule, pl.App)
	}
	seen := make(map[string]bool, len(pl.Placements))
	for _, p := range pl.Placements {
		d := p.Desc
		if d.Name == "" {
			return fmt.Errorf("%w: unnamed bean in plan %s", ErrDesignRule, pl.App)
		}
		if seen[d.Name] {
			return fmt.Errorf("%w: duplicate placement for %s", ErrDesignRule, d.Name)
		}
		seen[d.Name] = true
		if len(p.Servers) == 0 {
			return fmt.Errorf("%w: bean %s placed on no server", ErrDesignRule, d.Name)
		}
		if d.Kind == container.Entity {
			if !d.LocalOnly {
				return fmt.Errorf("%w: entity bean %s must be local-only", ErrDesignRule, d.Name)
			}
			if d.Facade {
				return fmt.Errorf("%w: entity bean %s cannot be a façade", ErrDesignRule, d.Name)
			}
		}
		if d.Facade && d.LocalOnly {
			return fmt.Errorf("%w: bean %s cannot be both façade and local-only", ErrDesignRule, d.Name)
		}
		if !d.Facade && !d.LocalOnly {
			return fmt.Errorf("%w: bean %s must be a façade or local-only", ErrDesignRule, d.Name)
		}
	}
	return nil
}
