package core

import (
	"fmt"
	"slices"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/dbrepl"
	"wadeploy/internal/simnet"
)

// The beans AutoWire deploys on every server it extends to, besides the
// replicas ("<bean>RO"): the updater façade that applies pushed updates and,
// for asynchronous propagation, the message-driven subscriber that feeds it.
const (
	UpdaterBean    = "Updater"
	SubscriberBean = "UpdateSubscriber"
)

// WireOptions parameterizes AutoWire.
type WireOptions struct {
	// FetchFor builds the fetch path a replica of rwBean deployed on server
	// takes on a cold miss, an expired entry or an unowned key. Nil (or a
	// nil return) yields push-only replicas. Typically this wraps one RMI
	// call to a façade co-located with the read-write bean.
	FetchFor func(server *container.Server, rwBean string) container.FetchFunc

	// QueryFetchFor builds the pull re-execution path for the edge query
	// caches; nil yields push-only caches.
	QueryFetchFor func(server *container.Server) container.QueryFetch
}

// Wiring is what AutoWire materialized, keyed by edge-server name. It also
// retains enough context to extend the deployment to more servers at
// runtime.
type Wiring struct {
	Replicas    map[string]map[string]*container.ROEntity // server -> rw bean -> replica
	Updaters    map[string]*container.UpdaterFacade
	Caches      map[string]*container.QueryCache
	Subscribers map[string]*container.MDBean

	d    *Deployment
	ext  *container.ExtendedDescriptor // the propagation override applied
	opts WireOptions
	// methods are the declared edge façades' methods on each edge.
	methods map[string][]*container.EdgeMethod
	// owned is each partitioned bean's assignment: its partitions
	// round-robin over the deployment's edges.
	owned map[string]PartitionAssignment
	// The pushers, by transport: RMI ones per read-write bean (sync and
	// lease specs; partition scopes are per bean), topic ones per distinct
	// window (async specs share a message per window).
	rmiPushers   map[string]*container.Pusher
	topicPushers map[time.Duration]*container.Pusher
	views        *container.QueryViews // main-side results of the push-refreshed queries, or nil
	// db ships main's committed statements to each wired edge's database
	// replica, when an edge method reads one (container.FromEdgeDB).
	db *dbrepl.Primary
}

// Replica returns the read-only replica of rwBean on server, or nil.
func (w *Wiring) Replica(server, rwBean string) *container.ROEntity {
	if m, ok := w.Replicas[server]; ok {
		return m[rwBean]
	}
	return nil
}

// EdgeMethod returns method of the declared edge façade bean on server, or
// nil.
func (w *Wiring) EdgeMethod(server, bean, method string) *container.EdgeMethod {
	for _, m := range w.methods[server] {
		if m.Bean == bean && m.Name == method {
			return m
		}
	}
	return nil
}

// QueryViews returns the main server's materialised results of the
// push-refreshed cached queries, or nil when the descriptor declares none.
func (w *Wiring) QueryViews() *container.QueryViews { return w.views }

// DeployedOn reports whether the replica bundle is live on server.
func (w *Wiring) DeployedOn(server string) bool {
	_, ok := w.Updaters[server]
	return ok
}

// target is server's updater façade as a push destination.
func (w *Wiring) target(server string) container.PushTarget {
	return container.PushTarget{Server: server, Facade: UpdaterBean}
}

// AutoWire implements the paper's pattern-implementation automation
// (Section 5): given an extended deployment descriptor it attaches the
// matching pushers to the registered read-write beans and deploys, on each
// server in on, the read-only replicas and query caches the descriptor
// declares, an updater façade that applies pushed updates in one bulk call,
// and — for async replicas — the JMS topic and message-driven subscriber,
// plus a database replica when a declared edge method reads one. It deploys
// the declared edge façades on every edge, each delegating to main until its
// edge is wired. A static deployment passes every edge; one the re-placement
// controller extends passes none and leaves each server to Wiring.ExtendTo.
// Application deployers only write the descriptor.
func AutoWire(d *Deployment, ext *container.ExtendedDescriptor, opts WireOptions, on ...*container.Server) (*Wiring, error) {
	// The deployment's propagation override replaces every replica's method
	// of update; the descriptor itself is never mutated.
	eff := *ext
	if d.Propagation != nil {
		eff.Replicas = slices.Clone(ext.Replicas)
		for i := range eff.Replicas {
			eff.Replicas[i].Update = *d.Propagation
		}
	}
	if err := eff.Validate(); err != nil {
		return nil, fmt.Errorf("core: autowire: %w", err)
	}
	for _, spec := range eff.Replicas {
		if d.RW(spec.Bean) == nil {
			return nil, fmt.Errorf("core: autowire: read-write bean %s is not registered", spec.Bean)
		}
	}

	w := &Wiring{
		Replicas:     make(map[string]map[string]*container.ROEntity),
		Updaters:     make(map[string]*container.UpdaterFacade),
		Caches:       make(map[string]*container.QueryCache),
		Subscribers:  make(map[string]*container.MDBean),
		methods:      make(map[string][]*container.EdgeMethod),
		d:            d,
		ext:          &eff,
		opts:         opts,
		owned:        make(map[string]PartitionAssignment),
		rmiPushers:   make(map[string]*container.Pusher),
		topicPushers: make(map[time.Duration]*container.Pusher),
	}

	for _, spec := range eff.Replicas {
		if spec.Partition != nil {
			w.owned[spec.Bean] = RoundRobinAssignment(spec.Partition, d.EdgeNames())
		}
	}

	// Attach each spec's pusher, (transport, window), to the read-write
	// bean. RMI targets accrue as servers are wired, so a wiring on no
	// server starts with empty fan-out; creating a topic pusher declares the
	// topic before any edge subscriber attaches to it.
	for _, spec := range eff.Replicas {
		rw := d.RW(spec.Bean)
		if spec.Update.Delta {
			rw.SetDeltaPush(true)
		}
		topic, window := "", spec.Update.Window
		if spec.Update.Async {
			topic = eff.Topic
		}
		var ps *container.Pusher
		if topic != "" {
			ps = w.topicPushers[window] // async specs with the same window share a message
		}
		if ps == nil {
			var err error
			if ps, err = container.NewPusher(d.Main, topic, window); err != nil {
				return nil, fmt.Errorf("core: autowire: %w", err)
			}
			if topic != "" {
				w.topicPushers[window] = ps
			} else {
				// Under resilience a partitioned edge must not fail writers
				// everywhere: skip unreachable targets (the replica's TTL +
				// serve-stale bound covers the gap).
				ps.BestEffort = d.Resilience
				w.rmiPushers[spec.Bean] = ps
			}
		}
		rw.AddPropagator(ps)
	}

	// The query views hook onto the commit point of every bean that
	// invalidates a push-refreshed query.
	if w.views = container.NewQueryViews(d.Env.Metrics(), ext.CachedQueries); w.views != nil {
		for _, q := range ext.CachedQueries {
			if q.View == nil {
				continue
			}
			for _, bean := range q.InvalidatedBy {
				rw := d.RW(bean)
				if rw == nil {
					return nil, fmt.Errorf("core: autowire: cached query %s: read-write bean %s is not registered", q.Name, bean)
				}
				rw.SetQueryViews(w.views)
			}
		}
	}

	if container.ReadsEdgeDB(ext.EdgeFacades) {
		var err error
		if w.db, err = dbrepl.NewPrimary(d.Net, simnet.NodeDB, d.DB); err != nil {
			return nil, fmt.Errorf("core: autowire: %w", err)
		}
	}
	for _, edge := range d.Edges {
		for i := range ext.EdgeFacades {
			ms, err := container.DeployEdgeFacade(edge, d.Main.Name(), &ext.EdgeFacades[i])
			if err != nil {
				return nil, fmt.Errorf("core: autowire: %w", err)
			}
			w.methods[edge.Name()] = append(w.methods[edge.Name()], ms...)
		}
	}

	for _, srv := range on {
		if err := w.ExtendTo(srv); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Preload warm-deploys every wired replica with its read-write bean's current
// table contents, modeling replicas shipped with a data snapshot
// (measurement runs start after warm-up either way), and every wired query
// cache with the main server's seeded view results. Each entity's row is
// shared by every edge holding it. A wiring on no server has nothing to warm
// and reads nothing.
func (w *Wiring) Preload() error {
	if len(w.Updaters) == 0 {
		return nil
	}
	for _, qc := range w.Caches {
		w.views.Fill(qc)
	}
	for _, spec := range w.ext.Replicas {
		image, err := w.d.RW(spec.Bean).Image()
		if err != nil {
			return fmt.Errorf("core: preload: %w", err)
		}
		for _, u := range image {
			for _, edge := range w.d.Edges {
				if ro := w.Replica(edge.Name(), spec.Bean); ro != nil {
					ro.Seed(u.PK, u.State)
				}
			}
		}
	}
	return nil
}

// edgeStore is an edge cache's expiry: a read-only replica or a query cache.
type edgeStore interface {
	SetTTL(time.Duration)
	SetServeStale(time.Duration)
}

// arm sets an edge store's expiry by one rule. A declared relaxed-consistency
// bound (maxStaleness > 0) caps how stale a read can be even if pushes are
// lost. Under resilience a store that can refetch also expires after
// replicaTTL when undeclared, and a failed refetch serves its copy up to
// staleMaxAge; a push-only store has no refetch to expire into and keeps
// serving what was last pushed.
func (w *Wiring) arm(s edgeStore, maxStaleness time.Duration, refetches bool) {
	ttl := maxStaleness
	if w.d.Resilience && refetches {
		if ttl == 0 {
			ttl = replicaTTL
		}
		s.SetServeStale(staleMaxAge)
	}
	s.SetTTL(ttl)
}

// ExtendTo materializes the descriptor's replica bundle on one more server:
// updater façade, read-only replicas (with TTL staleness bounds), a query
// cache filled from the main server's views, a database replica holding
// every commit so far, async subscribers and sync-propagation targets, and
// binds the server's edge façades to its replicas, cache and database in
// the same event. It is safe to call at runtime while traffic flows — the
// demand-driven redeployment path. Extending a server that is already wired
// is a no-op.
func (w *Wiring) ExtendTo(server *container.Server) error {
	if w.DeployedOn(server.Name()) {
		return nil
	}
	uf, err := container.DeployUpdaterFacade(server, UpdaterBean)
	if err != nil {
		return fmt.Errorf("core: autowire updater on %s: %w", server.Name(), err)
	}
	w.Updaters[server.Name()] = uf
	w.Replicas[server.Name()] = make(map[string]*container.ROEntity)

	for _, spec := range w.ext.Replicas {
		var fetch container.FetchFunc
		if w.opts.FetchFor != nil {
			fetch = w.opts.FetchFor(server, spec.Bean)
		}
		ro, err := container.DeployROEntity(server, spec.Bean+"RO", spec.Bean, fetch)
		if err != nil {
			return fmt.Errorf("core: autowire replica %s on %s: %w", spec.Bean, server.Name(), err)
		}
		w.arm(ro, spec.Update.MaxStaleness, fetch != nil)
		uf.Register(spec.Bean, ro)
		w.applyPartitioning(server.Name(), spec, ro)
		w.Replicas[server.Name()][spec.Bean] = ro
	}

	if len(w.ext.CachedQueries) > 0 {
		var qfetch container.QueryFetch
		if w.opts.QueryFetchFor != nil {
			qfetch = w.opts.QueryFetchFor(server)
		}
		qc := container.NewQueryCache(server, UpdaterBean+"Queries", qfetch)
		w.arm(qc, 0, qfetch != nil)
		w.Caches[server.Name()] = qc
		w.views.Fill(qc)
		// One applier per invalidating bean, however many queries list it.
		inval := &container.QueryInvalidation{Cache: qc, Affected: affectedFunc(w.ext), Views: w.views}
		registered := make(map[string]bool)
		for _, q := range w.ext.CachedQueries {
			for _, beanName := range q.InvalidatedBy {
				if !registered[beanName] {
					registered[beanName] = true
					uf.Register(beanName, inval)
				}
			}
		}
	}

	if len(w.topicPushers) > 0 {
		sub, err := container.DeployUpdateSubscriber(server, SubscriberBean, w.ext.Topic, uf)
		if err != nil {
			return fmt.Errorf("core: autowire subscriber on %s: %w", server.Name(), err)
		}
		w.Subscribers[server.Name()] = sub
	}

	if w.db != nil {
		r, err := w.db.Attach(server.Name())
		if err != nil {
			return fmt.Errorf("core: autowire database replica on %s: %w", server.Name(), err)
		}
		server.AttachReplicaDB(r.DB)
	}

	for _, m := range w.methods[server.Name()] {
		m.Bind(w.Replicas[server.Name()], w.Caches[server.Name()])
	}
	w.ResumeTargets(server.Name())
	return nil
}

// Reset starts a resync cut-over on server: its replicas drop every entry and
// its query cache is filled from the main server's views again.
func (w *Wiring) Reset(server string) {
	for _, ro := range w.Replicas[server] {
		ro.Reset()
	}
	w.views.Fill(w.Caches[server])
}

// ReplicaBeans returns the read-write bean names the descriptor replicates,
// in descriptor order — the bundle a live migration moves.
func (w *Wiring) ReplicaBeans() []string {
	out := make([]string, 0, len(w.ext.Replicas))
	for _, spec := range w.ext.Replicas {
		out = append(out, spec.Bean)
	}
	return out
}

// Provides is the policy the bundle completes once extended to every edge:
// the replicated web tier its caches serve, plus the patterns the descriptor
// materializes — entity replicas, query caches, asynchronous update
// propagation. The re-placement controller prices the extension as it.
func (w *Wiring) Provides() Policy {
	return Policy{
		ReplicateWeb:   true,
		EntityReplicas: len(w.ext.Replicas) > 0,
		QueryCaches:    len(w.ext.CachedQueries) > 0,
		AsyncUpdates:   len(w.topicPushers) > 0,
	}
}

// Extends is the policy the bundle leaves deployed once extended to every
// edge: Provides plus the edge database replicas its declared methods read,
// which the advisor does not price.
func (w *Wiring) Extends() Policy {
	p := w.Provides()
	p.DBReplicas = w.db != nil
	return p
}

// SuspendTargets stops RMI pushes (sync and lease) to server's updater façade — the
// retirement half of the controller's decisions, taken when an edge has been
// unreachable for several epochs. The replica bundle stays deployed (a
// restarted edge resumes serving within its staleness bound, until a resync
// migration refreshes it) but writers stop paying for pushes that cannot be
// delivered. Async (JMS) propagation is left alone: the provider's
// redelivery machinery already decouples writers from dead subscribers.
// A no-op when the server is not wired or already suspended.
func (w *Wiring) SuspendTargets(server string) {
	for _, ps := range w.rmiPushers {
		ps.RemoveTarget(w.target(server))
	}
}

// ResumeTargets attaches RMI pushes to server's updater façade: the last step
// of wiring a server, and of a resync migration after SuspendTargets, once
// the replica state has been refreshed. A no-op when the server is not wired;
// AddTarget makes re-attachment idempotent.
func (w *Wiring) ResumeTargets(server string) {
	if !w.DeployedOn(server) {
		return
	}
	for _, ps := range w.rmiPushers {
		ps.AddTarget(w.target(server))
	}
}

// affectedFunc builds the update→invalidated-prefixes mapping declared in
// the descriptor: an update to bean B invalidates every pull-refreshed
// cached query that lists B among its invalidating operations.
func affectedFunc(ext *container.ExtendedDescriptor) func(u container.Update) []string {
	byBean := make(map[string][]string)
	for _, q := range ext.CachedQueries {
		if q.View != nil {
			continue
		}
		for _, b := range q.InvalidatedBy {
			byBean[b] = append(byBean[b], q.Name+":")
		}
	}
	return func(u container.Update) []string { return byBean[u.Bean] }
}
