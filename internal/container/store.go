package container

import (
	"errors"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
)

// errNoFetch is what store.load returns for a store with no fetch path; each
// edge cache words it for its own readers.
var errNoFetch = errors.New("no fetch path")

// store is the read-through soft state an edge cache keeps (Sections 4.3 and
// 4.4): one entry per key, served locally while fresh, through the fetch path
// on a miss, after a pull invalidation or once older than the TTL, and — when
// that refetch fails — from the old copy while it is within the serve-stale
// bound. ROEntity and QueryCache are thin layers over it.
type store[K comparable, V any] struct {
	srv     *Server
	fetch   func(p *sim.Proc, key K) (V, error) // nil for a push-only store
	entries map[K]entry[V]

	// ttl, when positive, bounds how long an entry is served without a
	// refetch; staleMaxAge, when positive, lets a failed refetch fall back
	// to the cached copy while it is younger than the bound (graceful
	// degradation when the central server is unreachable).
	ttl         time.Duration
	staleMaxAge time.Duration

	mHits    *metrics.Counter
	mMisses  *metrics.Counter
	mRefresh *metrics.Counter
	// Registered lazily by SetServeStale so degradation-free runs export
	// byte-identical metric snapshots.
	mStale    *metrics.Counter
	mStaleAge *metrics.Histogram
}

type entry[V any] struct {
	val      V
	stale    bool // pull-invalidated: the next read refetches
	loadedAt time.Duration
}

// newStore makes srv's store over fetch, counting hits, misses and refreshes
// under the cache's metric names.
func newStore[K comparable, V any](srv *Server, fetch func(*sim.Proc, K) (V, error), hits, misses, refreshes string) store[K, V] {
	reg := srv.Env().Metrics()
	return store[K, V]{
		srv:      srv,
		fetch:    fetch,
		entries:  make(map[K]entry[V]),
		mHits:    reg.Counter(hits),
		mMisses:  reg.Counter(misses),
		mRefresh: reg.Counter(refreshes),
	}
}

// SetTTL enables timeout invalidation: entries older than ttl refresh via the
// fetch path on their next read (the vendor-standard read-only bean mode the
// paper describes, and the fallback that bounds staleness when a push is
// lost). ttl <= 0 disables the timeout, the default.
func (s *store[K, V]) SetTTL(ttl time.Duration) { s.ttl = ttl }

// SetServeStale enables graceful degradation: when a refresh fails (the
// central server is unreachable) and a local copy younger than maxAge exists,
// Get serves the stale copy instead of erroring.
func (s *store[K, V]) SetServeStale(maxAge time.Duration) {
	s.staleMaxAge = maxAge
	if maxAge > 0 && s.mStale == nil {
		reg := s.srv.Env().Metrics()
		s.mStale = reg.Counter("container_stale_serves_total")
		s.mStaleAge = reg.Histogram("container_stale_serve_age_ns")
	}
}

// hit returns key's value when its entry is fresh, counting the hit; the
// caller charges it.
func (s *store[K, V]) hit(key K) (V, bool) {
	e, ok := s.entries[key]
	if ok && !e.stale && (s.ttl <= 0 || s.srv.Env().Now()-e.loadedAt <= s.ttl) {
		s.mHits.Inc()
		return e.val, true
	}
	var zero V
	return zero, false
}

// load serves key through the fetch path, a miss or a refresh, and stores
// what it fetched. A failed refresh falls back to the cached copy while it is
// within the serve-stale bound.
func (s *store[K, V]) load(p *sim.Proc, key K) (V, error) {
	var zero V
	if s.fetch == nil {
		return zero, errNoFetch
	}
	e, ok := s.entries[key]
	if ok {
		s.mRefresh.Inc()
	} else {
		s.mMisses.Inc()
	}
	v, err := s.fetch(p, key)
	if err != nil {
		if age := p.Now() - e.loadedAt; ok && s.staleMaxAge > 0 && age <= s.staleMaxAge {
			s.mStale.Inc()
			s.mStaleAge.Observe(age)
			return e.val, nil
		}
		return zero, err
	}
	s.put(key, v)
	return v, nil
}

// put installs v as key's fresh entry, loaded now.
func (s *store[K, V]) put(key K, v V) {
	s.entries[key] = entry[V]{val: v, loadedAt: s.srv.Env().Now()}
}
