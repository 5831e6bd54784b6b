package controller

import (
	"errors"
	"fmt"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/replog"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
)

// migrate executes one live component migration: extend the replica bundle
// to an edge (resync=false) or refresh an already-wired edge whose state
// diverged during a partition (resync=true), while write traffic keeps
// flowing on the main server.
//
// The protocol is the classic pre-copy live migration, expressed in
// simulation terms:
//
//  1. Attach one shared UpdateBuffer to every source entity — from this
//     event on, every commit is captured in global commit order.
//  2. Snapshot the source entities (charges real load CPU and a SELECT *
//     per table on main's DB resource) and bulk-transfer the image over
//     simnet, paying real RTT, bandwidth and congestion. A link flap mid
//     transfer surfaces a resumable BulkError: the engine retries with
//     jittered exponential backoff and re-ships only the lost remainder.
//  3. Catch-up rounds: drain the buffer, ship the delta, repeat until the
//     buffer drains empty or MaxCatchUpRounds is hit — each round shrinks
//     because a round only carries what committed while the previous one
//     was in flight.
//  4. Cut over in a single simulation event (no sleeps, so no commit can
//     interleave): wire the edge (or reset its stale replicas), install the
//     snapshot, detach the buffer, and replay every buffered update through
//     the edge's updater façade in commit order. Full-state updates make
//     the replay idempotent and convergent, so the migrated replica is
//     byte-identical to one that observed every commit live.
//
// The edge serves its previous tier throughout (remote façade before an
// extension, stale replicas during a resync) — availability never drops
// below what the static deployment offers.
func (c *Controller) migrate(p *sim.Proc, edge *container.Server, resync bool) Migration {
	d := c.cfg.Deployment
	w := c.cfg.Wiring
	main := d.Main.Name()
	name := edge.Name()
	m := Migration{Server: name, Resync: resync, Start: p.Now()}

	beans := w.ReplicaBeans()

	// Resyncs replay the event log when the backend is armed and still
	// retains the suffix past the edge's last acknowledged epoch — ordered
	// coalesced deltas instead of a full snapshot. A suffix that has been
	// compacted away falls through to the snapshot protocol below.
	if resync && c.store != nil {
		if mg, ok := c.migrateFromLog(p, edge, m); ok {
			return mg
		}
		c.store.CountFallback()
	}
	buf := container.NewUpdateBuffer()
	for _, bean := range beans {
		// Prepend: the buffer must record a commit in the same event as the
		// commit itself, before the propagator chain sleeps on WAN pushes to
		// already-wired edges — otherwise a commit whose push is still in
		// flight at cut-over would be missed by the final drain.
		d.RW(bean).PrependPropagator(buf)
	}
	detach := func() {
		for _, bean := range beans {
			d.RW(bean).RemovePropagator(buf)
		}
	}

	fail := func(err error) Migration {
		detach()
		m.Failed = true
		m.Err = err.Error()
		m.End = p.Now()
		c.migs = append(c.migs, m)
		c.mMigFails.Inc()
		return m
	}

	// Snapshot the source state, in bean then table order (deterministic).
	snaps := make(map[string][]container.Update, len(beans))
	for _, bean := range beans {
		rows, err := d.RW(bean).Snapshot(p)
		if err != nil {
			return fail(fmt.Errorf("snapshot %s: %w", bean, err))
		}
		snaps[bean] = rows
		for _, u := range rows {
			m.SnapshotBytes += u.WireBytes()
		}
	}

	if err := c.transfer(p, main, name, m.SnapshotBytes, &m); err != nil {
		return fail(fmt.Errorf("snapshot transfer: %w", err))
	}

	// Pre-copy catch-up: ship what committed while the previous transfer
	// was in flight; updates stay queued for the cut-over replay.
	var replay []container.Update
	for m.Rounds < c.opts.MaxCatchUpRounds {
		batch := buf.Drain()
		if len(batch) == 0 {
			break
		}
		m.Rounds++
		bytes := 0
		for _, u := range batch {
			bytes += u.WireBytes()
		}
		m.CatchUpBytes += bytes
		replay = append(replay, batch...)
		if err := c.transfer(p, main, name, bytes, &m); err != nil {
			return fail(fmt.Errorf("catch-up round %d: %w", m.Rounds, err))
		}
	}

	// Cut-over: everything below runs in this one simulation event — no
	// sleeps — so no commit can slip between the final drain and the
	// replay. Residual updates (committed during the last transfer) ride
	// the replay; their wire cost was prepaid by the delta stream the
	// propagators will push once targets resume.
	if resync {
		for _, bean := range beans {
			if ro := w.Replica(name, bean); ro != nil {
				ro.Reset()
			}
		}
	} else if err := w.ExtendTo(edge); err != nil {
		return fail(fmt.Errorf("extend: %w", err))
	}
	for _, bean := range beans {
		ro := w.Replica(name, bean)
		if ro == nil {
			continue
		}
		for _, u := range snaps[bean] {
			ro.Seed(u.PK, u.State)
		}
	}
	residual := buf.Drain()
	detach()
	replay = append(replay, residual...)
	if up := w.Updaters[name]; up != nil && len(replay) > 0 {
		up.ApplyLocal(replay)
	}
	m.Replayed = len(replay)
	m.End = p.Now()
	c.migs = append(c.migs, m)
	c.mMigs.Inc()
	c.mBytes.Add(int64(m.SnapshotBytes + m.CatchUpBytes))
	c.mReplayed.Add(int64(m.Replayed))
	c.mMigNs.Observe(m.End - m.Start)
	return m
}

// migrateFromLog resynchronizes edge by replaying the event log from its
// last acknowledged epoch. The recorder prepended at wiring time captures
// every commit in the commit event itself, so the log doubles as the
// migration's drain buffer — no UpdateBuffer attach/detach is needed.
//
//  1. Anchor a cursor per bean at the log head the edge acknowledged.
//  2. Pre-copy rounds: ship the coalesced suffix past each cursor (paying
//     real transfer cost over simnet), advance the cursors to the head
//     captured before the transfer, repeat while commits keep landing.
//  3. Cut over in one simulation event: collect the residual suffix
//     (committed during the last transfer; its wire cost rides the resumed
//     push stream) and apply every round's updates in order through the
//     edge's updater façade. Replay is last-writer-wins per field with
//     delete tombstones, so the replica converges to the primary without a
//     Reset — entries untouched since the partition stay valid.
//
// Returns ok=false without side effects when any bean's suffix was
// compacted away before the migration started (the caller snapshots
// instead); a suffix compacted mid-flight fails the migration and the next
// epoch's retry falls back to the snapshot path.
func (c *Controller) migrateFromLog(p *sim.Proc, edge *container.Server, m Migration) (Migration, bool) {
	d := c.cfg.Deployment
	w := c.cfg.Wiring
	main := d.Main.Name()
	name := edge.Name()
	beans := w.ReplicaBeans()
	acked := c.ackEpoch[name]

	cursors := make(map[string]uint64, len(beans))
	for _, bean := range beans {
		l := c.store.Log(bean)
		from := l.HeadAtEpoch(acked)
		if _, err := l.Since(from); err != nil {
			return m, false // compacted: snapshot fallback
		}
		cursors[bean] = from
	}
	m.FromLog = true

	fail := func(err error) Migration {
		m.Failed = true
		m.Err = err.Error()
		m.End = p.Now()
		c.migs = append(c.migs, m)
		c.mMigFails.Inc()
		return m
	}

	// Pre-copy rounds: each round ships only what committed while the
	// previous one was in flight, so rounds shrink geometrically like the
	// snapshot protocol's — but the first round is the coalesced delta
	// since the partition, not the whole table image.
	var replay []container.Update
	for m.Rounds < c.opts.MaxCatchUpRounds {
		var batch []container.Update
		next := make(map[string]uint64, len(beans))
		for _, bean := range beans {
			l := c.store.Log(bean)
			ups, err := l.CoalescedSince(cursors[bean])
			if err != nil {
				return fail(fmt.Errorf("log replay %s: %w", bean, err)), true
			}
			batch = append(batch, ups...)
			next[bean] = l.Head()
		}
		if len(batch) == 0 {
			break
		}
		m.Rounds++
		bytes := replog.WireBytes(batch)
		m.CatchUpBytes += bytes
		replay = append(replay, batch...)
		for bean, h := range next {
			cursors[bean] = h
		}
		if err := c.transfer(p, main, name, bytes, &m); err != nil {
			return fail(fmt.Errorf("log replay round %d: %w", m.Rounds, err)), true
		}
	}

	// Cut-over: single event, no sleeps. The residual suffix (committed
	// during the last transfer) joins the replay; applying the rounds in
	// order keeps last-writer-wins semantics end to end.
	for _, bean := range beans {
		ups, err := c.store.Log(bean).CoalescedSince(cursors[bean])
		if err != nil {
			return fail(fmt.Errorf("log replay residual %s: %w", bean, err)), true
		}
		replay = append(replay, ups...)
	}
	if up := w.Updaters[name]; up != nil && len(replay) > 0 {
		up.ApplyLocal(replay)
	}
	c.store.CountReplay(len(replay))
	m.Replayed = len(replay)
	m.End = p.Now()
	c.migs = append(c.migs, m)
	c.mMigs.Inc()
	c.mBytes.Add(int64(m.CatchUpBytes))
	c.mReplayed.Add(int64(m.Replayed))
	c.mMigNs.Observe(m.End - m.Start)
	return m, true
}

// transfer bulk-ships bytes from -> to, resuming after mid-transfer link
// failures: a BulkError reports how much was delivered before the path
// died, so each retry only re-ships the remainder, after a jittered
// exponential backoff drawn from the controller's dedicated RNG stream.
func (c *Controller) transfer(p *sim.Proc, from, to string, bytes int, m *Migration) error {
	remaining := bytes
	attempt := 0
	for remaining > 0 {
		err := c.cfg.Deployment.Net.TransferBulk(p, from, to, remaining, c.opts.TransferChunk)
		if err == nil {
			return nil
		}
		var be *simnet.BulkError
		if errors.As(err, &be) {
			remaining -= be.Sent
		}
		attempt++
		m.Retries++
		c.mRetries.Inc()
		if attempt > c.opts.MaxRetries {
			return fmt.Errorf("gave up after %d retries: %w", m.Retries, err)
		}
		backoff := c.opts.RetryBackoff << uint(min(attempt-1, 4))
		jitter := time.Duration(c.rng.Int63n(int64(c.opts.RetryBackoff)))
		p.Sleep(backoff + jitter)
	}
	return nil
}
