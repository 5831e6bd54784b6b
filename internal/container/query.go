package container

import (
	"errors"
	"fmt"
	"iter"
	"strings"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/trace"
)

// QueryFetch re-executes a cached query on a miss or pull refresh. On an
// edge server this is typically one RMI call to a façade co-located with
// the database; on the main server it is a local database query.
type QueryFetch func(p *sim.Proc, queryKey string) (any, error)

// QueryCache caches aggregate-query results at a server (Section 4.4): a
// store keyed by query key. The EJB specification allows this soft state to
// live inside stateless session beans, which is where the applications
// incorporate it. Keys follow the convention "<queryName>:<param>", so
// invalidation by query name uses the "<queryName>:" prefix.
type QueryCache struct {
	store[string, any]
	name string

	mPushed *metrics.Counter
}

// NewQueryCache creates a query cache owned by srv. fetch may be nil for
// strictly push-fed caches.
func NewQueryCache(srv *Server, name string, fetch QueryFetch) *QueryCache {
	return &QueryCache{
		store: newStore[string, any](srv, fetch,
			"container_querycache_hits_total", "container_querycache_misses_total", "container_querycache_refresh_total"),
		name:    name,
		mPushed: srv.Env().Metrics().Counter("container_querycache_pushed_total"),
	}
}

// Size returns the number of cached query results.
func (qc *QueryCache) Size() int { return len(qc.entries) }

// All yields every cached key and result, stale ones included, charging nothing.
func (qc *QueryCache) All() iter.Seq2[string, any] {
	return func(yield func(string, any) bool) {
		for key, e := range qc.entries {
			if !yield(key, e.val) {
				return
			}
		}
	}
}

// Get returns the cached result for key, fetching on a miss, after a pull
// invalidation or after timeout expiry.
func (qc *QueryCache) Get(p *sim.Proc, key string) (any, error) {
	if v, ok := qc.hit(key); ok {
		endHit := trace.Opf(p, "cache", qc.srv.name, "", trace.CauseService, "hit ", qc.name, "")
		qc.srv.Compute(p, CacheHitCPU)
		endHit()
		return v, nil
	}
	// Misses and refreshes run the fetch path (the facade's remote query or
	// local SQL), which contributes its own spans under this one.
	defer trace.Opf(p, "cache", qc.srv.name, "", trace.CauseService, "fetch ", qc.name, "")()
	v, err := qc.load(p, key)
	if errors.Is(err, errNoFetch) {
		return nil, fmt.Errorf("query cache %s: no entry for %q and no fetch path", qc.name, key)
	}
	if err != nil {
		return nil, fmt.Errorf("query cache %s fetch %q: %w", qc.name, key, err)
	}
	return v, nil
}

// Put stores a result directly (warm-up, or computing on the fly).
func (qc *QueryCache) Put(key string, v any) { qc.put(key, v) }

// InvalidatePrefix marks every entry whose key starts with prefix stale
// (pull mode). Use "<queryName>:" to drop one query's results, or "" to
// drop everything.
func (qc *QueryCache) InvalidatePrefix(prefix string) int {
	n := 0
	for k, e := range qc.entries {
		if strings.HasPrefix(k, prefix) && !e.stale {
			e.stale = true
			qc.entries[k] = e
			n++
		}
	}
	return n
}

// ApplyPush installs a fresh result pushed from the main server (push mode:
// readers are never penalized).
func (qc *QueryCache) ApplyPush(key string, v any) {
	qc.mPushed.Inc()
	qc.put(key, v)
}

// QueryInvalidation adapts a QueryCache to the Applier interface so an
// UpdaterFacade can refresh the affected queries when an entity update
// arrives. Push-refreshed queries (Views) install the main server's current
// result for every key the entity's commits refreshed; pull-refreshed ones
// are invalidated by the cache-key prefixes Affected maps the update to.
type QueryInvalidation struct {
	Cache    *QueryCache
	Affected func(u Update) []string
	Views    *QueryViews
}

// ApplyUpdate implements Applier.
func (qi *QueryInvalidation) ApplyUpdate(u Update) {
	if qi.Views != nil {
		qi.Views.install(qi.Cache, u)
	}
	if qi.Affected == nil {
		return
	}
	for _, prefix := range qi.Affected(u) {
		qi.Cache.InvalidatePrefix(prefix)
	}
}

// Commit is what a read-write bean shows the query views at its commit
// point: the entity's full state after and before the write, whatever the
// propagators then put on the wire (full state, delta, coalesced batch).
type Commit struct {
	Bean  string
	PK    sqldb.Value
	State Row // full post-write state
	Prev  Row // pre-write state of an update; zero for an insert
}

// Touches reports whether the commit changed any of cols: always for an
// insert, for an update when a value differs across the write.
func (c Commit) Touches(cols ...string) bool {
	if c.Prev.IsZero() {
		return true
	}
	for _, col := range cols {
		if c.Prev.Get(col) != c.State.Get(col) {
			return true
		}
	}
	return false
}

// QueryView declares a cached query push-refreshed (Section 4.4: the main
// server computes the fresh result and ships it in the bulk push) and tells
// the main server how to keep one result per cache key current.
type QueryView struct {
	// Key returns the cache key c.State puts the entity under, or "" when
	// the commit leaves the query alone.
	Key func(c Commit) string
	// Query executes the query for Key(c) on the main server, taking its
	// parameters from c.State. An update that moves the entity from one key
	// to another runs both on the reverse commit as well (State and Prev
	// swapped) to refresh the key it left.
	Query func(c Commit) (any, error)
	// Maintain, when non-nil, derives the result after an insert or update
	// from the one before it without SQL; ok = false falls back to Query.
	// It must return a new value and leave prev untouched: edge caches hold
	// prev by reference.
	Maintain func(prev any, c Commit) (next any, ok bool)
}

// QueryViews holds the main server's materialised result of every
// push-refreshed cached query, one immutable value per cache key. Each
// commit to an invalidating bean refreshes every key it affects exactly once,
// on the main server, before the propagator chain runs: by the query's
// maintainer when it applies, by one re-execution otherwise. The edges'
// QueryInvalidation appliers then install the current value by reference, so
// refresh cost does not depend on the edge count or the propagation mode.
//
// Invariant: each key's value equals a fresh execution of its query, once
// every write whose SQL statement has run has reached its commit (a statement
// is charged its database service time in between, and for that long the
// database is a row ahead of the views, as it is of the entity replicas).
type QueryViews struct {
	byBean  map[string][]*QueryView // invalidating bean -> views, descriptor order
	results map[string]any
	// touched lists, per entity, the keys its commits have refreshed — what
	// an edge installs for an update of that entity, which may be a delta
	// too thin to rebuild the keys from.
	touched map[entityRef][]string

	mMaintained *metrics.Counter
	mRequeries  *metrics.Counter
}

type entityRef struct {
	bean string
	pk   sqldb.Value
}

// NewQueryViews builds the views the descriptor's cached queries declare, or
// returns nil when none does. The container_queryview_* counters register
// here, so deployments without push-refreshed queries keep their metric
// snapshots.
func NewQueryViews(reg *metrics.Registry, queries []CachedQuerySpec) *QueryViews {
	var v *QueryViews
	for _, q := range queries {
		if q.View == nil {
			continue
		}
		if v == nil {
			v = &QueryViews{
				byBean:      make(map[string][]*QueryView),
				results:     make(map[string]any),
				touched:     make(map[entityRef][]string),
				mMaintained: reg.Counter("container_queryview_maintained_total"),
				mRequeries:  reg.Counter("container_queryview_requeries_total"),
			}
		}
		for _, bean := range q.InvalidatedBy {
			v.byBean[bean] = append(v.byBean[bean], q.View)
		}
	}
	return v
}

// Seed installs a preloaded result as key's current value. A key of a query
// without a view is held as seeded: no commit refreshes it.
func (v *QueryViews) Seed(key string, result any) { v.results[key] = result }

// Fill puts every key's current value into qc, as Put does, counting no push:
// how an edge cache is warmed, extended to or reset. Nil v or qc fills nothing.
func (v *QueryViews) Fill(qc *QueryCache) {
	if v == nil || qc == nil {
		return
	}
	for key, r := range v.results {
		qc.Put(key, r)
	}
}

// Result returns key's current value.
func (v *QueryViews) Result(key string) (any, bool) {
	r, ok := v.results[key]
	return r, ok
}

// committed refreshes every key the commit affects. shipped says whether the
// bean's updates travel to the edges at all: only then are the entity's keys
// put on record for install.
func (v *QueryViews) committed(c Commit, shipped bool) error {
	ref := entityRef{c.Bean, c.PK}
	keys := v.touched[ref]
	n := len(keys)
	qs := v.byBean[c.Bean]
	for _, q := range qs {
		key := q.Key(c)
		if key != "" {
			if err := v.refresh(q, key, c, true); err != nil {
				return err
			}
			if shipped {
				keys = addKey(keys, key, len(qs))
			}
		}
		if c.Prev.IsZero() {
			continue
		}
		// The key the entity left, if the write moved it.
		undo := c
		undo.State, undo.Prev = c.Prev, c.State
		if left := q.Key(undo); left != "" && left != key {
			if err := v.refresh(q, left, undo, false); err != nil {
				return err
			}
			if shipped {
				keys = addKey(keys, left, len(qs))
			}
		}
	}
	if len(keys) != n {
		v.touched[ref] = keys
	}
	return nil
}

// refresh brings key up to date with c: through the maintainer when allowed,
// seeded and willing, through one re-execution otherwise.
func (v *QueryViews) refresh(q *QueryView, key string, c Commit, maintain bool) error {
	if prev, seeded := v.results[key]; maintain && seeded && q.Maintain != nil {
		if next, ok := q.Maintain(prev, c); ok {
			v.mMaintained.Inc()
			v.results[key] = next
			return nil
		}
	}
	next, err := q.Query(c)
	if err != nil {
		return fmt.Errorf("query view %s: %w", key, err)
	}
	v.mRequeries.Inc()
	v.results[key] = next
	return nil
}

// addKey adds key unless keys hold it; a new entity's list is sized for room.
func addKey(keys []string, key string, room int) []string {
	for _, k := range keys {
		if k == key {
			return keys
		}
	}
	if keys == nil {
		keys = make([]string, 0, room)
	}
	return append(keys, key)
}

// install pushes the current value of every key u's entity has refreshed
// into an edge cache.
func (v *QueryViews) install(qc *QueryCache, u Update) {
	for _, key := range v.touched[entityRef{u.Bean, u.PK}] {
		qc.ApplyPush(key, v.results[key])
	}
}
