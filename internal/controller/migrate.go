package controller

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"wadeploy/internal/container"
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
//     buffer drains empty or maxCatchUpRounds is hit — each round shrinks
//     because a round only carries what committed while the previous one
//     was in flight.
//  4. Cut over in a single simulation event (no sleeps, so no commit can
//     interleave): wire the edge (or reset its stale replicas), fill its
//     query cache from the main server's views, install the snapshot,
//     detach the buffer, and replay every buffered update through the
//     edge's updater façade in commit order. Full-state updates make
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

	// owned keeps the updates to keys the edge's replicas own: a
	// partitioned edge is shipped its own slice of the table, no more.
	owned := func(us []container.Update) []container.Update {
		return slices.DeleteFunc(us, func(u container.Update) bool { return !w.OwnsKey(name, u.Bean, u.PK) })
	}

	// Snapshot the source state, in bean then table order (deterministic).
	snaps := make(map[string][]container.Update, len(beans))
	for _, bean := range beans {
		rows, err := d.RW(bean).Snapshot(p)
		if err != nil {
			return fail(fmt.Errorf("snapshot %s: %w", bean, err))
		}
		rows = owned(rows)
		snaps[bean] = rows
		m.SnapshotBytes += container.BatchBytes(rows)
	}

	if err := c.transfer(p, main, name, m.SnapshotBytes, &m); err != nil {
		return fail(fmt.Errorf("snapshot transfer: %w", err))
	}

	// Pre-copy catch-up: ship what committed while the previous transfer
	// was in flight; updates stay queued for the cut-over replay.
	var replay []container.Update
	for m.Rounds < maxCatchUpRounds {
		batch := owned(buf.Drain())
		if len(batch) == 0 {
			break
		}
		m.Rounds++
		bytes := container.BatchBytes(batch)
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
		w.Reset(name)
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
	residual := owned(buf.Drain())
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

// transfer bulk-ships bytes from -> to, resuming after mid-transfer link
// failures: a BulkError reports how much was delivered before the path
// died, so each retry only re-ships the remainder, after a jittered
// exponential backoff drawn from the controller's dedicated RNG stream.
func (c *Controller) transfer(p *sim.Proc, from, to string, bytes int, m *Migration) error {
	remaining := bytes
	attempt := 0
	for remaining > 0 {
		err := c.cfg.Deployment.Net.TransferBulk(p, from, to, remaining, transferChunk)
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
		if attempt > maxRetries {
			return fmt.Errorf("gave up after %d retries: %w", m.Retries, err)
		}
		backoff := retryBackoff << uint(min(attempt-1, 4))
		jitter := time.Duration(c.rng.Int63n(int64(retryBackoff)))
		p.Sleep(backoff + jitter)
	}
	return nil
}
