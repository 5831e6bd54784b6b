package container

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"wadeploy/internal/jms"
	"wadeploy/internal/metrics"
	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

// ErrNoSuchEntity is returned when an entity row does not exist.
var ErrNoSuchEntity = errors.New("container: no such entity")

// ErrStaleVersion is returned by optimistic (version-checked) updates when
// the entity changed since the caller read it — the "version number" design
// pattern the paper recommends for use cases spanning multiple transactions
// over possibly-stale presentation data (Section 4.5).
var ErrStaleVersion = errors.New("container: stale version")

// Update describes one committed write to a read-write entity, propagated to
// read-only replicas and query caches.
type Update struct {
	Bean    string      // read-write bean name
	PK      sqldb.Value // primary key of the affected entity
	State   Row         // full post-write state (changed fields only when Delta)
	Deleted bool

	// Delta marks State as containing only the fields the write changed
	// (the paper's Section 4.3 optimization: "transferring only the
	// changes instead of the entire bean's state"). Replicas merge deltas
	// into their cached copy; a replica without a copy ignores the delta
	// and lets its next read fetch the full state.
	Delta bool

	// CommittedAt is the virtual time the write committed at the
	// read-write bean; replicas use it to measure propagation delay.
	CommittedAt time.Duration
}

// WireBytes estimates the update's payload size on the wire: deltas cost a
// small header plus a per-field charge, full-state pushes a fixed record.
func (u Update) WireBytes() int {
	if u.Deleted {
		return 96
	}
	if u.Delta {
		return 64 + 96*u.State.Len()
	}
	return 1024
}

// Propagator observes committed updates in chain order. Pusher delivers them
// to the replicas; UpdateBuffer only records them.
type Propagator interface {
	Propagate(p *sim.Proc, updates []Update) error
}

// RWEntity is a read-write entity bean co-located with the data source. Per
// the paper's design rules it exposes only a local interface: it can be
// reached remotely only through a façade on its own server.
type RWEntity struct {
	srv       *Server
	name      string
	table     string
	pkCol     string
	props     []Propagator
	views     *QueryViews
	deltaPush bool

	// SQL text for the fixed-shape operations, built once at deploy time so
	// the hot paths hand the database a stable string (which its prepared-
	// statement cache keys on) without per-call concatenation.
	loadSQL     string
	deleteSQL   string
	snapshotSQL string

	// inserts and updates hold the INSERT and UPDATE text per column set a
	// writer has used, so a write finds its text by comparing columns
	// instead of building and hashing a fresh string.
	inserts, updates []*colStmt

	writes int64

	mLoad  *metrics.Counter
	mStore *metrics.Counter
}

// DeployRWEntity deploys a read-write entity bean backed by table with the
// given primary-key column. It is not bound in JNDI (local interface only).
func DeployRWEntity(srv *Server, name, table, pkCol string) (*RWEntity, error) {
	if _, dup := srv.beans[name]; dup {
		return nil, fmt.Errorf("container: bean %s already deployed on %s", name, srv.name)
	}
	reg := srv.Env().Metrics()
	b := &RWEntity{
		srv: srv, name: name, table: table, pkCol: pkCol,
		loadSQL:     "SELECT * FROM " + table + " WHERE " + pkCol + " = ?",
		deleteSQL:   "DELETE FROM " + table + " WHERE " + pkCol + " = ?",
		snapshotSQL: "SELECT * FROM " + table,
		mLoad:       reg.Counter("container_ejb_load_total"),
		mStore:      reg.Counter("container_ejb_store_total"),
	}
	srv.beans[name] = &binding{name: name, kind: Entity}
	return b, nil
}

// Name returns the bean's deployment name.
func (b *RWEntity) Name() string { return b.name }

// Writes returns the number of committed write operations.
func (b *RWEntity) Writes() int64 { return b.writes }

// AddPropagator attaches an update propagator (read-mostly pattern wiring).
func (b *RWEntity) AddPropagator(pr Propagator) { b.props = append(b.props, pr) }

// PrependPropagator attaches a propagator ahead of the existing chain, so it
// observes every commit before any blocking push runs. A migration's drain
// buffer must attach this way: propagation to already-wired edges sleeps on
// WAN pushes, and a buffer attached behind it would see a commit only after
// that sleep — by which time the cut-over may already have drained and
// detached it, losing the update for the newly wired edge.
func (b *RWEntity) PrependPropagator(pr Propagator) {
	b.props = append([]Propagator{pr}, b.props...)
}

// SetQueryViews hooks the main server's query views onto the bean's commit
// point, ahead of the whole propagator chain (nil detaches them).
func (b *RWEntity) SetQueryViews(v *QueryViews) { b.views = v }

// RemovePropagator detaches a previously attached propagator (the migration
// cut-over detaches its drain buffer here). Removing a propagator that is
// not attached is a no-op.
func (b *RWEntity) RemovePropagator(pr Propagator) {
	for i, cur := range b.props {
		if cur == pr {
			b.props = append(b.props[:i], b.props[i+1:]...)
			return
		}
	}
}

// Snapshot reads the bean's entire backing table in one bulk SELECT and
// returns a full-state Update per entity in table order — the base image of
// a live migration's state transfer. It pays the real SQL and ejbLoad CPU
// cost on the bean's server; the caller pays the wire cost of shipping the
// image (sum of WireBytes) separately.
func (b *RWEntity) Snapshot(p *sim.Proc) ([]Update, error) {
	b.srv.Compute(p, b.srv.costs.EntityLoadCPU)
	res, err := b.srv.SQL(p, b.snapshotSQL)
	if err != nil {
		return nil, fmt.Errorf("entity %s snapshot: %w", b.name, err)
	}
	return b.updatesOf(res, p.Now()), nil
}

// Image reads the bean's entire backing table outside simulated time and
// returns a full-state Update per entity in table order: the data snapshot a
// warm-deployed replica ships with.
func (b *RWEntity) Image() ([]Update, error) {
	stmt, err := b.srv.db.PrepareStmt(b.snapshotSQL)
	if err != nil {
		return nil, fmt.Errorf("entity %s image: %w", b.name, err)
	}
	res, err := stmt.Exec()
	if err != nil {
		return nil, fmt.Errorf("entity %s image: %w", b.name, err)
	}
	return b.updatesOf(res, 0), nil
}

// updatesOf turns the bean's whole table, read by snapshotSQL, into one
// full-state Update per entity committed at at.
func (b *RWEntity) updatesOf(res sqldb.Result, at time.Duration) []Update {
	rows := RowsOf(res)
	out := make([]Update, 0, rows.Len())
	for i := range rows.Len() {
		row := rows.At(i)
		out = append(out, Update{Bean: b.name, PK: row.Get(b.pkCol), State: row, CommittedAt: at})
	}
	return out
}

// SetDeltaPush makes UpdateFields propagate only the changed fields instead
// of the full post-write state (Section 4.3's bandwidth optimization;
// requires push-refresh replicas, which merge deltas into their copies).
func (b *RWEntity) SetDeltaPush(on bool) { b.deltaPush = on }

// Propagators returns the number of attached propagators.
func (b *RWEntity) Propagators() int { return len(b.props) }

// Load reads the entity's state by primary key (ejbFindByPrimaryKey +
// ejbLoad; the paper's baseline removes the redundant extra database call,
// so this is a single SELECT). The row is the SELECT's own: no copy.
func (b *RWEntity) Load(p *sim.Proc, pk sqldb.Value) (Row, error) {
	b.mLoad.Inc()
	b.srv.Compute(p, b.srv.costs.EntityLoadCPU)
	res, err := b.srv.SQL(p, b.loadSQL, pk)
	if err != nil {
		return Row{}, fmt.Errorf("entity %s load: %w", b.name, err)
	}
	row := FirstRow(res)
	if row.IsZero() {
		return Row{}, fmt.Errorf("entity %s pk %v: %w", b.name, pk, ErrNoSuchEntity)
	}
	return row, nil
}

// colStmt is a statement's text over one column set, sorted by name. A Row
// a write over the set builds shares the column list.
type colStmt struct {
	cols []string
	sql  string
}

// rowFor returns st as a Row (see State.over) over the column list of its
// set's entry in *stmts, and the entry's text; the set's first use adds the
// entry, its text built by text.
func rowFor(stmts *[]*colStmt, st State, text func(cols []string) string) (Row, string) {
	var buf [16]string
	cols := st.sorted(buf[:0]) // sorted: deterministic SQL text
	i := slices.IndexFunc(*stmts, func(s *colStmt) bool { return slices.Equal(s.cols, cols) })
	if i < 0 {
		cs := &colStmt{cols: slices.Clone(cols)}
		cs.sql = text(cs.cols)
		i, *stmts = len(*stmts), append(*stmts, cs)
	}
	cs := (*stmts)[i]
	return st.over(&cs.cols), cs.sql
}

// Insert creates a new entity (ejbCreate) and propagates it.
func (b *RWEntity) Insert(p *sim.Proc, st State) error {
	b.srv.Compute(p, b.srv.costs.EntityStoreCPU)
	image, q := rowFor(&b.inserts, st, func(cols []string) string {
		return "INSERT INTO " + b.table + " (" + strings.Join(cols, ", ") + ") VALUES (" + strings.TrimPrefix(strings.Repeat(", ?", len(cols)), ", ") + ")"
	})
	if _, err := b.srv.SQL(p, q, image.vals...); err != nil {
		return fmt.Errorf("entity %s insert: %w", b.name, err)
	}
	b.writes++
	b.mStore.Inc()
	return b.commit(p, Update{Bean: b.name, PK: image.Get(b.pkCol), State: image}, image, Row{})
}

// UpdateFields applies changes to the entity (ejbStore at commit) and
// propagates the merged post-write state (or, with delta pushes, the row of
// changed columns alone).
func (b *RWEntity) UpdateFields(p *sim.Proc, pk sqldb.Value, changes State) (Row, error) {
	cur, err := b.Load(p, pk)
	if err != nil {
		return Row{}, err
	}
	b.srv.Compute(p, b.srv.costs.EntityStoreCPU)
	delta, q := rowFor(&b.updates, changes, func(cols []string) string {
		return "UPDATE " + b.table + " SET " + strings.Join(cols, " = ?, ") + " = ? WHERE " + b.pkCol + " = ?"
	})
	// The pk lands in the spare slot past the delta's values.
	if _, err := b.srv.SQL(p, q, append(delta.vals, pk)...); err != nil {
		return Row{}, fmt.Errorf("entity %s update: %w", b.name, err)
	}
	b.writes++
	b.mStore.Inc()
	merged := cur.With(delta)
	u := Update{Bean: b.name, PK: pk, State: merged}
	if b.deltaPush {
		u = Update{Bean: b.name, PK: pk, State: delta, Delta: true}
	}
	if err := b.commit(p, u, merged, cur); err != nil {
		return Row{}, err
	}
	return merged, nil
}

// Delete removes the entity (ejbRemove) and propagates the deletion.
func (b *RWEntity) Delete(p *sim.Proc, pk sqldb.Value) error {
	var last Row
	if b.views != nil {
		// The views find the queries the entity leaves from the state it had.
		var err error
		if last, err = b.Load(p, pk); err != nil {
			return err
		}
	}
	b.srv.Compute(p, b.srv.costs.EntityStoreCPU)
	res, err := b.srv.SQL(p, b.deleteSQL, pk)
	if err != nil {
		return fmt.Errorf("entity %s delete: %w", b.name, err)
	}
	if res.Affected == 0 {
		return fmt.Errorf("entity %s pk %v: %w", b.name, pk, ErrNoSuchEntity)
	}
	b.writes++
	b.mStore.Inc()
	return b.commit(p, Update{Bean: b.name, PK: pk, Deleted: true}, last, Row{})
}

// UpdateIfVersion is the optimistic variant of UpdateFields: it applies
// changes only if the entity's versionCol still equals expected, bumping the
// version by one. A mismatch returns ErrStaleVersion and leaves the entity
// untouched. This protects use cases that read (possibly stale) replica data
// in one transaction and write in a later one.
func (b *RWEntity) UpdateIfVersion(p *sim.Proc, pk sqldb.Value, versionCol string, expected int64, changes State) (Row, error) {
	cur, err := b.Load(p, pk)
	if err != nil {
		return Row{}, err
	}
	if got := cur.Get(versionCol).AsInt(); got != expected {
		return Row{}, fmt.Errorf("entity %s pk %v: have version %d, caller expected %d: %w",
			b.name, pk, got, expected, ErrStaleVersion)
	}
	bumped := changes.Clone()
	bumped[versionCol] = sqldb.Int(expected + 1)
	return b.UpdateFields(p, pk, bumped)
}

// commit is the bean's commit point. The query views refresh first — on the
// main server, in zero virtual time, from the full post-write state — so
// every propagator, blocking or not, delivers updates whose query results
// are already current; then the propagators run in chain order.
func (b *RWEntity) commit(p *sim.Proc, u Update, state, prev Row) error {
	u.CommittedAt = p.Now()
	if b.views != nil {
		c := Commit{Bean: b.name, PK: u.PK, State: state, Prev: prev, Deleted: u.Deleted}
		if err := b.views.committed(c, len(b.props) > 0); err != nil {
			return fmt.Errorf("entity %s commit: %w", b.name, err)
		}
	}
	for _, pr := range b.props {
		if err := pr.Propagate(p, []Update{u}); err != nil {
			return fmt.Errorf("entity %s propagate: %w", b.name, err)
		}
	}
	return nil
}

// FetchFunc retrieves an entity's fresh state for a read-only replica on a
// cold miss, an expired entry or an unowned key — typically one RMI call to a
// façade co-located with the read-write bean.
type FetchFunc func(p *sim.Proc, pk sqldb.Value) (Row, error)

// FetchFrom is that usual fetch path: one call from srv of method on the
// façade bean deployed on node, passing args and then the key, which the
// façade answers with the entity's Row (its read-write bean's Load). The
// argument list is built on the fetching process's stack.
func FetchFrom(srv *Server, node, bean, method string, args ...sqldb.Value) FetchFunc {
	return func(p *sim.Proc, pk sqldb.Value) (Row, error) {
		stub, err := srv.StubFor(p, node, bean)
		if err != nil {
			return Row{}, err
		}
		var buf [4]sqldb.Value
		v, err := stub.Invoke(p, method, append(append(buf[:0], args...), pk)...)
		if err != nil {
			return Row{}, err
		}
		row, ok := v.(Row)
		if !ok {
			return Row{}, fmt.Errorf("container: %s.%s returned %T", bean, method, v)
		}
		return row, nil
	}
}

// ROEntity is a read-only replica of an entity bean deployed on an edge
// server (the read-mostly pattern, Section 4.3). Reads are served from local
// memory; freshness is maintained by pushed updates, with an optional
// timeout that refetches entries a lost push left behind.
type ROEntity struct {
	srv   *Server
	name  string
	fetch FetchFunc
	ttl   time.Duration // 0 = no timeout invalidation

	entries map[sqldb.Value]roEntry

	// staleMaxAge, when positive, lets a failed refresh serve the cached
	// copy while it is younger than the bound (graceful degradation when
	// the central server is unreachable).
	staleMaxAge time.Duration
	staleServes int64

	// owns, when set, restricts the replica to its partition slice: only
	// owned keys are cached and refreshed locally; unowned keys pass
	// through the fetch path every time without ever entering the cache.
	owns       func(sqldb.Value) bool
	remoteGets int64

	hits, misses, staleRefreshes, pushes int64

	// Propagation-delay accounting (commit at the read-write bean to
	// application at this replica) for consistency reporting.
	delaySamples int64
	delaySum     time.Duration
	delayMax     time.Duration

	mHits      *metrics.Counter
	mMisses    *metrics.Counter
	mStaleRef  *metrics.Counter
	mPushes    *metrics.Counter
	mStaleness *metrics.Histogram
	// Registered lazily by SetServeStale so degradation-free runs export
	// byte-identical metric snapshots.
	mStale    *metrics.Counter
	mStaleAge *metrics.Histogram
	// Registered lazily by SetOwnership for the same reason.
	mRemoteGets *metrics.Counter
}

type roEntry struct {
	state    Row
	loadedAt time.Duration
}

// DeployROEntity deploys a read-only replica of rwBean (named for the reader:
// updates reach the replica through UpdaterFacade.Register). fetch is used on
// cold misses and expired entries; it may be nil for strictly push-fed
// replicas that tolerate ErrNoSuchEntity on cold reads.
func DeployROEntity(srv *Server, name, rwBean string, fetch FetchFunc) (*ROEntity, error) {
	if _, dup := srv.beans[name]; dup {
		return nil, fmt.Errorf("container: bean %s already deployed on %s", name, srv.name)
	}
	reg := srv.Env().Metrics()
	b := &ROEntity{
		srv:        srv,
		name:       name,
		fetch:      fetch,
		entries:    make(map[sqldb.Value]roEntry),
		mHits:      reg.Counter("container_replica_hits_total"),
		mMisses:    reg.Counter("container_replica_misses_total"),
		mStaleRef:  reg.Counter("container_replica_stale_refreshes_total"),
		mPushes:    reg.Counter("container_replica_pushes_total"),
		mStaleness: reg.Histogram("container_replica_staleness_ns"),
	}
	srv.beans[name] = &binding{name: name, kind: Entity}
	return b, nil
}

// Name returns the bean's deployment name.
func (b *ROEntity) Name() string { return b.name }

// Hits, Misses, Pushes report cache behavior for tests and reports.
func (b *ROEntity) Hits() int64   { return b.hits }
func (b *ROEntity) Misses() int64 { return b.misses }
func (b *ROEntity) Pushes() int64 { return b.pushes }

// SetTTL enables timeout invalidation: entries older than ttl refresh via
// the fetch path on their next read (the vendor-standard read-only bean
// mode the paper describes, and the fallback that bounds staleness when an
// asynchronous push is lost). ttl <= 0 disables the timeout.
func (b *ROEntity) SetTTL(ttl time.Duration) { b.ttl = ttl }

// TTL returns the timeout-invalidation interval (0 when disabled).
func (b *ROEntity) TTL() time.Duration { return b.ttl }

// SetServeStale enables graceful degradation: when a refresh fails (the
// central server is unreachable) and a local copy younger than maxAge
// exists, Get serves the stale copy instead of erroring.
func (b *ROEntity) SetServeStale(maxAge time.Duration) {
	b.staleMaxAge = maxAge
	if maxAge > 0 && b.mStale == nil {
		reg := b.srv.Env().Metrics()
		b.mStale = reg.Counter("container_stale_serves_total")
		b.mStaleAge = reg.Histogram("container_stale_serve_age_ns")
	}
}

// StaleServes returns the number of reads served from stale entries.
func (b *ROEntity) StaleServes() int64 { return b.staleServes }

// SetOwnership restricts the replica to a partition slice: reads for keys
// outside owns go straight to the fetch path (a remote get) and are never
// cached, preloads and pushed updates for unowned keys are dropped. nil
// restores full replication.
func (b *ROEntity) SetOwnership(owns func(sqldb.Value) bool) {
	b.owns = owns
	if owns != nil && b.mRemoteGets == nil {
		b.mRemoteGets = b.srv.Env().Metrics().Counter("container_replica_remote_gets_total")
	}
}

// Owns reports whether this replica's partition slice covers pk (always true
// without partitioning).
func (b *ROEntity) Owns(pk sqldb.Value) bool { return b.owns == nil || b.owns(pk) }

// RemoteGets returns the number of reads for unowned keys that went to the
// fetch path.
func (b *ROEntity) RemoteGets() int64 { return b.remoteGets }

// MaxPropagationDelay returns the largest observed commit-to-apply delay.
func (b *ROEntity) MaxPropagationDelay() time.Duration { return b.delayMax }

// MeanPropagationDelay returns the mean commit-to-apply delay.
func (b *ROEntity) MeanPropagationDelay() time.Duration {
	if b.delaySamples == 0 {
		return 0
	}
	return b.delaySum / time.Duration(b.delaySamples)
}

// Cached returns the number of locally cached entities.
func (b *ROEntity) Cached() int { return len(b.entries) }

// Peek returns the locally cached state for pk without touching the fetch
// path, hit/miss accounting, or CPU costs — a white-box view for tests and
// diagnostics that must observe cache contents without mutating them.
func (b *ROEntity) Peek(pk sqldb.Value) (Row, bool) {
	e, ok := b.entries[pk]
	if !ok {
		return Row{}, false
	}
	return e.state, true
}

// expired reports whether an entry has outlived the timeout invalidation.
func (b *ROEntity) expired(e roEntry) bool {
	return b.ttl > 0 && b.srv.Env().Now()-e.loadedAt > b.ttl
}

// Get serves the entity's state: locally when fresh, via fetch on a miss or
// after timeout expiry. A hit returns the stored row itself — "from local
// memory", with no copy.
func (b *ROEntity) Get(p *sim.Proc, pk sqldb.Value) (Row, error) {
	if !b.Owns(pk) {
		// Outside this replica's partition slice: always a remote get,
		// never cached locally (the slice is the whole point — an edge
		// holds only its partitions).
		if b.fetch == nil {
			return Row{}, fmt.Errorf("read-only %s pk %v (unowned, no fetch path): %w", b.name, pk, ErrNoSuchEntity)
		}
		b.remoteGets++
		b.mRemoteGets.Inc()
		st, err := b.fetch(p, pk)
		if err != nil {
			return Row{}, fmt.Errorf("read-only %s remote get: %w", b.name, err)
		}
		return st, nil
	}
	e, ok := b.entries[pk]
	if ok && !b.expired(e) {
		b.hits++
		b.mHits.Inc()
		b.srv.Compute(p, b.srv.costs.CacheHitCPU)
		return e.state, nil
	}
	if b.fetch == nil {
		return Row{}, fmt.Errorf("read-only %s pk %v (no fetch path): %w", b.name, pk, ErrNoSuchEntity)
	}
	if ok {
		b.staleRefreshes++
		b.mStaleRef.Inc()
	} else {
		b.misses++
		b.mMisses.Inc()
	}
	st, err := b.fetch(p, pk)
	if err != nil {
		// Serve-stale degradation: a refresh that cannot reach the
		// central server falls back to the local copy while it is
		// younger than the staleness bound.
		if ok && b.staleMaxAge > 0 {
			if age := p.Now() - e.loadedAt; age <= b.staleMaxAge {
				b.staleServes++
				b.mStale.Inc()
				b.mStaleAge.Observe(age)
				return e.state, nil
			}
		}
		return Row{}, fmt.Errorf("read-only %s refresh: %w", b.name, err)
	}
	b.entries[pk] = roEntry{state: st, loadedAt: p.Now()}
	return st, nil
}

// Seed installs row without cost accounting (warm-up, a migration's
// snapshot). Keys outside the replica's partition slice are dropped. A Row
// never changes, so one may seed any number of replicas.
func (b *ROEntity) Seed(pk sqldb.Value, row Row) {
	if !b.Owns(pk) {
		return
	}
	b.entries[pk] = roEntry{state: row, loadedAt: b.srv.Env().Now()}
}

// Preload is Seed from a State, columns sorted by name.
func (b *ROEntity) Preload(pk sqldb.Value, st State) { b.Seed(pk, st.row()) }

// ApplyUpdate applies a pushed update, so reads stay local.
func (b *ROEntity) ApplyUpdate(u Update) {
	if !b.Owns(u.PK) {
		// A push for an unowned key (source-side filtering off, or a
		// broadcast topic): drop it before any accounting.
		return
	}
	b.pushes++
	b.mPushes.Inc()
	now := b.srv.Env().Now()
	if u.CommittedAt > 0 {
		delay := now - u.CommittedAt
		b.delaySamples++
		b.delaySum += delay
		if delay > b.delayMax {
			b.delayMax = delay
		}
		b.mStaleness.Observe(delay)
	}
	if u.Deleted {
		delete(b.entries, u.PK)
		return
	}
	if u.Delta {
		e, ok := b.entries[u.PK]
		if !ok {
			// No local copy to patch: leave it to the next read's fetch.
			return
		}
		b.entries[u.PK] = roEntry{state: e.state.With(u.State), loadedAt: now}
		return
	}
	b.entries[u.PK] = roEntry{state: u.State, loadedAt: now}
}

// Reset drops every cached entry. A resync migration clears the replica
// before installing a fresh snapshot, so rows deleted while the replica was
// cut off do not linger past the resync.
func (b *ROEntity) Reset() { clear(b.entries) }

// Applier consumes pushed updates; both ROEntity and query-cache adapters
// implement it, letting one updater façade feed all edge caches.
type Applier interface {
	ApplyUpdate(u Update)
}

// UpdaterFacade is the edge-side façade that receives pushed updates in one
// bulk RMI call (or from an MDB) and applies them to the registered
// read-only beans and query caches.
type UpdaterFacade struct {
	srv      *Server
	name     string
	appliers map[string][]Applier
	applied  int64

	mApplied *metrics.Counter
}

// MethodApply is the RMI method name for pushing updates to an
// UpdaterFacade; the argument is a []Update batch.
const MethodApply = "apply"

// DeployUpdaterFacade deploys and JNDI-binds an updater façade.
func DeployUpdaterFacade(srv *Server, name string) (*UpdaterFacade, error) {
	u := &UpdaterFacade{
		srv: srv, name: name, appliers: make(map[string][]Applier),
		mApplied: srv.Env().Metrics().Counter("container_updates_applied_total"),
	}
	if err := srv.bind(name, StatelessSession, u.handle); err != nil {
		return nil, err
	}
	return u, nil
}

// Register routes updates for rwBean to a.
func (u *UpdaterFacade) Register(rwBean string, a Applier) {
	u.appliers[rwBean] = append(u.appliers[rwBean], a)
}

// Applied returns the number of updates applied.
func (u *UpdaterFacade) Applied() int64 { return u.applied }

// Apply applies a batch locally (used by MDB delivery on the same server).
func (u *UpdaterFacade) Apply(p *sim.Proc, updates []Update) {
	u.srv.Compute(p, u.srv.costs.CacheHitCPU)
	for _, up := range updates {
		u.applied++
		u.mApplied.Inc()
		for _, a := range u.appliers[up.Bean] {
			a.ApplyUpdate(up)
		}
	}
}

// ApplyLocal applies a batch with no CPU accounting — the zero-virtual-time
// replay a migration cut-over performs inside a single simulation event.
// Charging compute here would let concurrent requests interleave with the
// replay and observe a half-replayed replica; the migration instead books
// the replay's cost against its own transfer accounting.
func (u *UpdaterFacade) ApplyLocal(updates []Update) {
	for _, up := range updates {
		u.applied++
		u.mApplied.Inc()
		for _, a := range u.appliers[up.Bean] {
			a.ApplyUpdate(up)
		}
	}
}

func (u *UpdaterFacade) handle(p *sim.Proc, call *rmi.Call) (any, error) {
	if call.Method != MethodApply {
		return nil, fmt.Errorf("container: %s.%s: %w", u.name, call.Method, ErrNoSuchMethod)
	}
	updates, ok := call.Payload.(*[]Update)
	if !ok {
		return nil, fmt.Errorf("container: %s.apply: payload must be *[]Update", u.name)
	}
	u.srv.Compute(p, u.srv.costs.MethodCPU)
	u.Apply(p, *updates)
	return len(*updates), nil
}

// UpdateBuffer is a Propagator that records committed updates instead of
// delivering them anywhere — the drain buffer of a live migration. One
// buffer attached to every bean of a migrating bundle captures all their
// writes in global commit order (propagate runs on the writer's process, so
// append order is commit order). It is a pure accumulator: no cost, no
// network, no RNG, which keeps buffering invisible to the rest of the run.
type UpdateBuffer struct {
	updates []Update
}

// NewUpdateBuffer returns an empty drain buffer.
func NewUpdateBuffer() *UpdateBuffer { return &UpdateBuffer{} }

// Propagate records the batch.
func (ub *UpdateBuffer) Propagate(_ *sim.Proc, updates []Update) error {
	ub.updates = append(ub.updates, updates...)
	return nil
}

// Len returns the number of buffered updates.
func (ub *UpdateBuffer) Len() int { return len(ub.updates) }

// WireBytes sums the payload estimate of the buffered updates — what a
// catch-up round of the migration must ship.
func (ub *UpdateBuffer) WireBytes() int {
	total := 0
	for _, u := range ub.updates {
		total += u.WireBytes()
	}
	return total
}

// Drain returns the buffered updates in commit order and clears the buffer.
func (ub *UpdateBuffer) Drain() []Update {
	out := ub.updates
	ub.updates = nil
	return out
}

// DeployUpdateSubscriber deploys an MDB on srv that feeds a local updater
// façade from the topic (the UpdateSubscriber MDB of Fig. 6).
func DeployUpdateSubscriber(srv *Server, name, topic string, facade *UpdaterFacade) (*MDBean, error) {
	return DeployMDB(srv, name, topic, func(p *sim.Proc, s *Server, msg *jms.Message) {
		updates, ok := msg.Body.([]Update)
		if !ok {
			return
		}
		facade.Apply(p, updates)
	})
}
