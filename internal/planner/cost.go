package planner

import (
	"fmt"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/jms"
	"wadeploy/internal/rmi"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

// Params are the calibration values a Model varies: its topology's legs and
// edge count, and the two values the application stacks set differently
// (internal/experiment/calibrate.go). Model.Params derives them from the
// same core.Options the simulator deploys with; every other cost the
// evaluator reads is the constant the simulator charges, so prediction and
// simulation share one source of truth.
type Params struct {
	// Topology (Fig. 2): a star of three application servers around a
	// router, the database on the main server's LAN, clients on each
	// server's LAN.
	WANOneWay time.Duration // server <-> server one-way latency
	LANOneWay time.Duration // client <-> collocated server, main <-> db
	WANBps    float64       // WAN bottleneck bandwidth, bytes/s
	LANBps    float64       // LAN bandwidth, bytes/s
	Edges     int           // edge servers receiving replicas/pushes

	Rounds      float64       // network round trips per remote invocation
	DispatchCPU time.Duration // servlet dispatch
}

// Params derives the model's values from the application's deployment
// options (the same values core.NewPaperDeployment builds the simulated
// testbed from). The model is star-shaped: a WAN path is one main-to-edge
// route of opts.Topology (backbone leg plus metro leg, at the bandwidth of
// the narrower), and a zero Topology is the paper's Fig. 2 testbed.
func (m *Model) Params() Params {
	opts := m.Options
	topo := opts.Topology.WithDefaults()
	return Params{
		WANOneWay:   topo.Backbone.OneWay + topo.Metro.OneWay,
		LANOneWay:   topo.LAN.OneWay,
		WANBps:      min(topo.Backbone.Bps, topo.Metro.Bps),
		LANBps:      topo.LAN.Bps,
		Edges:       topo.Edges,
		Rounds:      opts.RMI.Rounds,
		DispatchCPU: opts.Web.DispatchCPU,
	}
}

// Evaluator computes predicted response times for one model.
type Evaluator struct {
	m      *Model
	p      Params
	placed map[core.Policy]*placed
	err    error // the first call from an edge to an undeclared method
}

// NewEvaluator builds an evaluator over the model's derived parameters.
func NewEvaluator(m *Model) *Evaluator {
	return &Evaluator{m: m, p: m.Params(), placed: make(map[core.Policy]*placed)}
}

// placed is a policy resolved against the layout: the beans it puts on the
// edges, each with the cache hits per call of every edge method it declares
// (wan for a WAN call; none for a bean that declares none), and the beans
// the edges replicate.
type placed struct {
	c        core.Policy
	atEdge   map[string]map[string]int
	replicas map[string]bool
}

// wan marks a declared edge method that costs a WAN call of main's method.
const wan = -1

// edgeHits prices one declared edge method: a FromCache method is one hit; a
// FromReplicas method one per bean, plus one for a query its handler reads;
// a Delegate method, and a FromEdgeDB one since the planner prices no edge
// database, a WAN call of main's method.
func edgeHits(m container.EdgeMethodSpec) int {
	switch {
	case m.Handler == nil && m.Query != "":
		return 1
	case m.Handler != nil && len(m.Beans) > 0:
		if m.Query != "" {
			return len(m.Beans) + 1
		}
		return len(m.Beans)
	}
	return wan
}

// place resolves c against the model's layout, once per policy.
func (ev *Evaluator) place(c core.Policy) *placed {
	if pl := ev.placed[c]; pl != nil {
		return pl
	}
	pl := &placed{c: c, atEdge: make(map[string]map[string]int), replicas: make(map[string]bool)}
	for _, comp := range ev.m.Components {
		if comp.Rule.active(c) {
			pl.atEdge[comp.Desc.Name] = nil
		}
	}
	for _, f := range ev.m.EdgeFacades(c) {
		hits := make(map[string]int, len(f.Methods))
		for _, m := range f.Methods {
			hits[m.Name] = edgeHits(m)
		}
		pl.atEdge[f.Bean] = hits
	}
	if c.EntityReplicas {
		for _, b := range ev.m.Replicated {
			pl.replicas[b] = true
		}
	}
	ev.placed[c] = pl
	return pl
}

// site is where an op runs: on the main server or on an edge, under a
// resolved policy.
type site struct {
	*placed
	edge bool
}

// xfer is an uncontended one-way transfer: path latency plus one
// serialization at the bottleneck bandwidth (the simulated network is
// cut-through with equal link rates).
func xfer(lat time.Duration, bytes int, bps float64) time.Duration {
	return lat + time.Duration(float64(bytes)/bps*float64(time.Second))
}

// remoteCall is a wide-area RMI between two application servers: marshal
// CPU, request and reply transfers at the RMI default sizes, and the
// protocol's extra round trips (rounds − 1 beyond the request/response
// pair).
func (ev *Evaluator) remoteCall(body time.Duration) time.Duration {
	p := ev.p
	d := rmi.MarshalCPU
	d += xfer(p.WANOneWay, rmi.RequestBytes, p.WANBps)
	d += container.MethodCPU + body
	d += xfer(p.WANOneWay, rmi.ReplyBytes, p.WANBps)
	d += time.Duration((p.Rounds - 1) * float64(2*p.WANOneWay))
	return d
}

// localCall is an in-VM invocation through a co-located stub.
func (ev *Evaluator) localCall(body time.Duration) time.Duration {
	return rmi.LocalDispatch + container.MethodCPU + body
}

// sqlCost is one statement over JDBC from the main server to the database
// node: connection round trips plus the engine's per-row cost model.
func (ev *Evaluator) sqlCost(scan, write, out int) time.Duration {
	return container.JDBCRounds*2*ev.p.LANOneWay + sqldb.Cost(scan, write, out)
}

// loadCost is an entity-bean ejbLoad: field marshalling plus the
// primary-key SELECT.
func (ev *Evaluator) loadCost() time.Duration {
	return container.EntityLoadCPU + ev.sqlCost(1, 0, 1)
}

// pushCost is the write-side cost of propagating one update to the edge
// caches: a blocking wide-area push per edge under synchronous propagation,
// or a local transactional JMS publish under asynchronous updates (delivery
// then happens off the writer's critical path).
func (ev *Evaluator) pushCost(c core.Policy) time.Duration {
	p := ev.p
	if c.AsyncUpdates {
		return jms.PublishCPU
	}
	apply := container.MethodCPU + container.CacheHitCPU // Updater façade applying the state
	one := rmi.MarshalCPU
	one += xfer(p.WANOneWay, container.FullStateBytes, p.WANBps) // one full-state record
	one += apply
	one += xfer(p.WANOneWay, container.PushReplyBytes, p.WANBps)
	one += time.Duration((p.Rounds - 1) * float64(2*p.WANOneWay))
	return time.Duration(p.Edges) * one
}

// Op evaluation.

// costAt prices op at a site; a nil op costs nothing.
func costAt(op Op, ev *Evaluator, at site) time.Duration {
	if op == nil {
		return 0
	}
	return op.cost(ev, at)
}

func (s Seq) cost(ev *Evaluator, at site) time.Duration {
	var d time.Duration
	for _, op := range s {
		d += costAt(op, ev, at)
	}
	return d
}

func (c Call) cost(ev *Evaluator, at site) time.Duration {
	main := site{placed: at.placed}
	if !at.edge {
		return ev.localCall(costAt(c.Body, ev, at))
	}
	methods, onEdge := at.atEdge[c.Bean]
	switch {
	case !onEdge:
		return ev.remoteCall(costAt(c.Body, ev, main))
	case methods == nil:
		return ev.localCall(costAt(c.Body, ev, at))
	}
	hits, ok := methods[c.Method]
	switch {
	case !ok:
		if ev.err == nil {
			ev.err = fmt.Errorf("planner: %s: the edge façade %s does not declare %s.%s",
				at.c.Patterns(), c.Bean, c.Bean, c.Method)
		}
		return 0
	case hits == wan:
		return ev.localCall(ev.remoteCall(costAt(c.Body, ev, main)))
	}
	return ev.localCall(time.Duration(hits) * container.CacheHitCPU)
}

func (r Read) cost(ev *Evaluator, at site) time.Duration {
	if !at.edge {
		return r.Else.cost(ev, at)
	}
	for _, b := range r.Beans {
		if !at.replicas[b] {
			return r.Else.cost(ev, at)
		}
	}
	return time.Duration(len(r.Beans)) * container.CacheHitCPU
}

func (s SQL) cost(ev *Evaluator, _ site) time.Duration {
	return ev.sqlCost(s.Scan, s.Write, s.Out)
}

func (Load) cost(ev *Evaluator, _ site) time.Duration { return ev.loadCost() }

func (i Insert) cost(ev *Evaluator, at site) time.Duration {
	d := container.EntityStoreCPU + ev.sqlCost(0, 1, 0)
	if at.replicas[i.Bean] {
		d += ev.pushCost(at.c)
	}
	return d
}

func (u Update) cost(ev *Evaluator, at site) time.Duration {
	d := ev.loadCost() // the container re-loads fields before storing
	d += container.EntityStoreCPU + ev.sqlCost(1, 1, 0)
	if at.replicas[u.Bean] {
		d += ev.pushCost(at.c)
	}
	return d
}

// PageCost predicts the response time of one page for a client of the given
// locality under policy c: TCP handshake (keep-alive off), request
// transfer, servlet dispatch, the handler's stub calls, rendering, and the
// response transfer (the page's Model.PageCosts entry).
func (ev *Evaluator) PageCost(c core.Policy, page *Page, local bool) time.Duration {
	p := ev.p
	atEdge := !local && c.ReplicateWeb

	// Client-to-web-tier path: collocated LAN, or LAN plus the WAN star
	// when a remote client must reach the main server.
	lat, bps := p.LANOneWay, p.LANBps
	if !local && !atEdge {
		lat += p.WANOneWay
		bps = p.WANBps
	}

	d := 2 * xfer(lat, web.HandshakeBytes, bps)
	d += xfer(lat, web.RequestBytes, bps)
	d += p.DispatchCPU
	d += costAt(page.Body, ev, site{placed: ev.place(c), edge: atEdge})
	render := ev.m.PageCosts[page.Name]
	d += render.CPU + render.Lat
	bytes := web.DefaultPageBytes
	if render.Page != nil && render.Page.Bytes != 0 {
		bytes = render.Page.Bytes
	}
	d += xfer(lat, bytes, bps)
	return d
}

// SessionMean predicts a pattern's mean response time across its pages for
// one locality, weighted by expected visit counts — the quantity plotted in
// the paper's Figures 7 and 8.
func (ev *Evaluator) SessionMean(c core.Policy, pattern string, local bool) time.Duration {
	pat := ev.m.pattern(pattern)
	if pat == nil {
		return 0
	}
	var sum float64
	var visits float64
	for i := range ev.m.Pages {
		page := &ev.m.Pages[i]
		v := pat.Visits[page.Name]
		if v == 0 {
			continue
		}
		sum += v * float64(ev.PageCost(c, page, local))
		visits += v
	}
	if visits == 0 {
		return 0
	}
	return time.Duration(sum / visits)
}
