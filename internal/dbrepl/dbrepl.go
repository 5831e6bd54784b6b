// Package dbrepl implements asynchronous statement-based database
// replication from a primary database to per-edge replicas — the orthogonal
// technique the paper's Section 6 points at for the costs that application
// partitioning cannot remove ("highly customized aggregate queries, such as
// keyword searches ... can be alleviated by ... database partitioning and
// replication").
//
// The primary observes every committed write statement through the sqldb
// write hook and ships it across the network to each replica, which applies
// statements in order on its own node (charging the replica node's CPU).
// Replication is asynchronous: writers never wait for replicas, and replica
// reads may trail the primary by roughly the one-way network latency.
package dbrepl

import (
	"fmt"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/trace"
)

// Replica is one edge copy of the database.
type Replica struct {
	DB   *sqldb.DB
	node *simnet.Node

	applied int64
	failed  int64
	dropped int64
	// lastArrival enforces in-order application.
	lastArrival time.Duration
	// lag accounting: ship-to-apply delay.
	lagMax time.Duration
	lagSum time.Duration
}

// Applied returns the number of statements applied.
func (r *Replica) Applied() int64 { return r.applied }

// Failed returns the number of statements that errored on apply (divergence).
func (r *Replica) Failed() int64 { return r.failed }

// Dropped returns the number of statements lost to partitions.
func (r *Replica) Dropped() int64 { return r.dropped }

// MaxLag returns the largest observed ship-to-apply delay.
func (r *Replica) MaxLag() time.Duration { return r.lagMax }

// MeanLag returns the mean ship-to-apply delay.
func (r *Replica) MeanLag() time.Duration {
	if r.applied == 0 {
		return 0
	}
	return r.lagSum / time.Duration(r.applied)
}

// Primary ships the primary database's write log to replicas.
type Primary struct {
	env     *sim.Env
	net     *simnet.Network
	node    string
	db      *sqldb.DB
	bytes   int
	applyMS time.Duration

	replicas []*Replica
	shipped  int64

	retryMax   int
	retryDelay time.Duration

	// Batched shipping: statements committed inside one window share one
	// WAN message per replica instead of paying a message each.
	batchWindow time.Duration
	pending     []stmt
	batchArmed  bool
	batches     int64

	mShipped *metrics.Counter
	mDropped *metrics.Counter
	mApplied *metrics.Counter
	mFailed  *metrics.Counter
	mLag     *metrics.Histogram
	// mRetries is registered only when retries are configured, so
	// retry-free runs export byte-identical metric snapshots.
	mRetries *metrics.Counter
	// mBatches is registered only when a batch window is configured, for
	// the same reason.
	mBatches *metrics.Counter
}

// stmt is one buffered write-log record awaiting a batched ship.
type stmt struct {
	sql  string
	args []sqldb.Value
}

// Options tunes the replication stream.
type Options struct {
	// StatementBytes is the wire size of one log record.
	StatementBytes int
	// ApplyCPU is the replica-side cost of applying one statement (on top
	// of the statement's own database cost).
	ApplyCPU time.Duration
	// RetryMax, when positive, re-attempts shipping a statement to an
	// unreachable replica up to RetryMax times (every RetryDelay) before
	// counting it dropped. Retried statements still apply in ship order
	// per replica.
	RetryMax   int
	RetryDelay time.Duration
	// BatchWindow, when positive, buffers committed statements and ships
	// everything from one window as a single WAN message per replica
	// (applied in commit order on arrival). Writers still never wait;
	// replica lag grows by at most one window.
	BatchWindow time.Duration
}

// DefaultOptions models row-based log shipping of small OLTP statements.
var DefaultOptions = Options{
	StatementBytes: 512,
	ApplyCPU:       100 * time.Microsecond,
}

// NewPrimary hooks primary replication onto db, which must live on node.
// Further writes to db are streamed to attached replicas.
func NewPrimary(net *simnet.Network, node string, db *sqldb.DB, opts Options) (*Primary, error) {
	if net.Node(node) == nil {
		return nil, fmt.Errorf("dbrepl: no such node %s", node)
	}
	if opts.StatementBytes <= 0 {
		opts.StatementBytes = DefaultOptions.StatementBytes
	}
	reg := net.Env().Metrics()
	p := &Primary{
		env:        net.Env(),
		net:        net,
		node:       node,
		db:         db,
		bytes:      opts.StatementBytes,
		applyMS:    opts.ApplyCPU,
		retryMax:   opts.RetryMax,
		retryDelay: opts.RetryDelay,
		mShipped:   reg.Counter("dbrepl_shipped_total"),
		mDropped:   reg.Counter("dbrepl_dropped_total"),
		mApplied:   reg.Counter("dbrepl_applied_total"),
		mFailed:    reg.Counter("dbrepl_failed_total"),
		mLag:       reg.Histogram("dbrepl_apply_lag_ns"),
	}
	if opts.RetryMax > 0 {
		p.mRetries = reg.Counter("dbrepl_ship_retries_total")
	}
	if opts.BatchWindow > 0 {
		p.batchWindow = opts.BatchWindow
		p.mBatches = reg.Counter("dbrepl_ship_batches_total")
	}
	db.SetWriteHook(p.ship)
	return p, nil
}

// Batches returns the number of batched ship windows flushed.
func (p *Primary) Batches() int64 { return p.batches }

// Shipped returns the number of statements shipped (per replica fan-out not
// included: one write shipped to three replicas counts once).
func (p *Primary) Shipped() int64 { return p.shipped }

// Replicas returns the number of attached replicas.
func (p *Primary) Replicas() int { return len(p.replicas) }

// Attach creates a replica on node whose contents are initialized by init
// (typically the same schema+seed routine used for the primary, which
// yields an identical snapshot). Writes after attachment stream to it.
func (p *Primary) Attach(node string, init func(db *sqldb.DB) error) (*Replica, error) {
	n := p.net.Node(node)
	if n == nil {
		return nil, fmt.Errorf("dbrepl: no such node %s", node)
	}
	db := sqldb.New()
	if init != nil {
		if err := init(db); err != nil {
			return nil, fmt.Errorf("dbrepl: init replica on %s: %w", node, err)
		}
	}
	r := &Replica{DB: db, node: n}
	p.replicas = append(p.replicas, r)
	return r, nil
}

// ship streams one committed write statement to every replica,
// asynchronously and in order per replica. The write hook carries no process
// parameter, so the causal context is read off the environment's currently
// executing process (the one whose statement committed).
func (p *Primary) ship(sql string, args []sqldb.Value) {
	p.shipped++
	p.mShipped.Inc()
	argsCopy := append([]sqldb.Value(nil), args...)
	if p.batchWindow > 0 {
		p.pending = append(p.pending, stmt{sql: sql, args: argsCopy})
		if !p.batchArmed {
			p.batchArmed = true
			p.env.After(p.batchWindow, p.flushShip)
		}
		return
	}
	for _, r := range p.replicas {
		p.shipTo(r, sql, argsCopy, trace.CaptureEnv(p.env), 0)
	}
}

// flushShip ships everything buffered in the closing window as one message
// per replica; the next window arms on its first committed statement.
func (p *Primary) flushShip() {
	p.batchArmed = false
	if len(p.pending) == 0 {
		return
	}
	batch := p.pending
	p.pending = nil
	p.batches++
	p.mBatches.Inc()
	for _, r := range p.replicas {
		p.shipBatchTo(r, batch, trace.CaptureEnv(p.env), 0)
	}
}

// shipBatchTo attempts delivery of one window's batch to one replica: one
// network message sized for the whole batch, applied statement by statement
// in commit order on arrival.
func (p *Primary) shipBatchTo(r *Replica, batch []stmt, ctx trace.Ctx, attempt int) {
	delay, err := p.net.Route(p.node, r.node.ID).Delay(p.bytes * len(batch))
	if err != nil {
		if attempt < p.retryMax {
			p.mRetries.Inc()
			p.env.After(p.retryDelay, func() { p.shipBatchTo(r, batch, ctx, attempt+1) })
			return
		}
		r.dropped += int64(len(batch))
		p.mDropped.Add(int64(len(batch)))
		ctx.Drop()
		return
	}
	shippedAt := p.env.Now()
	arrival := shippedAt + delay
	if arrival < r.lastArrival {
		arrival = r.lastArrival
	}
	r.lastArrival = arrival
	cause := trace.CauseService
	if attempt > 0 {
		cause = trace.CauseRetry
	}
	p.env.At(arrival, func() {
		p.env.Spawn("dbrepl-apply-batch", func(proc *sim.Proc) {
			defer trace.Adoptf(proc, ctx, "dbrepl", r.node.ID, cause, "replay batch of ", fmt.Sprint(len(batch)), "")()
			for _, st := range batch {
				if p.applyMS > 0 {
					trace.Use(proc, r.node.CPU, r.node.ID, p.applyMS)
				}
				res, err := r.DB.Exec(st.sql, st.args...)
				if err != nil {
					r.failed++
					p.mFailed.Inc()
					continue
				}
				trace.Use(proc, r.node.CPU, r.node.ID, res.Cost)
				r.applied++
				p.mApplied.Inc()
				lag := proc.Now() - shippedAt
				r.lagSum += lag
				if lag > r.lagMax {
					r.lagMax = lag
				}
				p.mLag.Observe(lag)
			}
		})
	})
}

// shipTo attempts delivery of one statement to one replica; attempt counts
// retries already spent.
func (p *Primary) shipTo(r *Replica, sql string, argsCopy []sqldb.Value, ctx trace.Ctx, attempt int) {
	delay, err := p.net.Route(p.node, r.node.ID).Delay(p.bytes)
	if err != nil {
		if attempt < p.retryMax {
			p.mRetries.Inc()
			p.env.After(p.retryDelay, func() { p.shipTo(r, sql, argsCopy, ctx, attempt+1) })
			return
		}
		r.dropped++
		p.mDropped.Inc()
		ctx.Drop()
		return
	}
	shippedAt := p.env.Now()
	arrival := shippedAt + delay
	if arrival < r.lastArrival {
		arrival = r.lastArrival
	}
	r.lastArrival = arrival
	cause := trace.CauseService
	if attempt > 0 {
		cause = trace.CauseRetry
	}
	p.env.At(arrival, func() {
		p.env.Spawn("dbrepl-apply", func(proc *sim.Proc) {
			defer trace.Adoptf(proc, ctx, "dbrepl", r.node.ID, cause, "replay ", sql[:min(len(sql), 24)], "")()
			if p.applyMS > 0 {
				trace.Use(proc, r.node.CPU, r.node.ID, p.applyMS)
			}
			res, err := r.DB.Exec(sql, argsCopy...)
			if err != nil {
				r.failed++
				p.mFailed.Inc()
				return
			}
			trace.Use(proc, r.node.CPU, r.node.ID, res.Cost)
			r.applied++
			p.mApplied.Inc()
			lag := proc.Now() - shippedAt
			r.lagSum += lag
			if lag > r.lagMax {
				r.lagMax = lag
			}
			p.mLag.Observe(lag)
		})
	})
}
