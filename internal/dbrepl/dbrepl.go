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
// reads may trail the primary by roughly the one-way network latency. A
// replica cut off from the primary queues what it misses in commit order and
// receives it once the path returns, so it never drops or reorders a
// statement.
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

// Log shipping models row-based replication of small OLTP statements.
const (
	// statementBytes is the wire size of one log record.
	statementBytes = 512
	// applyCPU is the replica-side cost of applying one statement, on top
	// of the statement's own database cost.
	applyCPU = 100 * time.Microsecond
	// recheckEvery is how often a replica with a backlog probes its path.
	recheckEvery = time.Second
)

// Replica is one edge copy of the database.
type Replica struct {
	DB   *sqldb.DB
	node *simnet.Node

	// lastArrival enforces in-order application.
	lastArrival time.Duration

	// backlog holds, in commit order, every statement committed since the
	// path to the replica was first found down; it drains once the path
	// returns, and new statements queue behind it until it is empty.
	backlog []stmt
}

// Primary ships the primary database's write log to replicas.
type Primary struct {
	env  *sim.Env
	net  *simnet.Network
	node string
	db   *sqldb.DB

	replicas []*Replica

	mShipped *metrics.Counter
	mApplied *metrics.Counter
	mFailed  *metrics.Counter // statements that errored on apply (divergence)
	// mLag is each applied statement's commit-to-apply delay, backlog
	// wait included.
	mLag *metrics.Histogram
}

// stmt is one committed write-log record on its way to a replica.
type stmt struct {
	sql         string
	args        []sqldb.Value
	ctx         trace.Ctx
	committedAt time.Duration
}

// NewPrimary hooks primary replication onto db, which must live on node.
// Further writes to db are streamed to attached replicas.
func NewPrimary(net *simnet.Network, node string, db *sqldb.DB) (*Primary, error) {
	if net.Node(node) == nil {
		return nil, fmt.Errorf("dbrepl: no such node %s", node)
	}
	reg := net.Env().Metrics()
	p := &Primary{
		env:      net.Env(),
		net:      net,
		node:     node,
		db:       db,
		mShipped: reg.Counter("dbrepl_shipped_total"),
		mApplied: reg.Counter("dbrepl_applied_total"),
		mFailed:  reg.Counter("dbrepl_failed_total"),
		mLag:     reg.Histogram("dbrepl_apply_lag_ns"),
	}
	db.SetWriteHook(p.ship)
	return p, nil
}

// Attach creates a replica on node holding a snapshot of the primary taken
// now, so it holds every commit before the attach; every commit after it
// streams to it.
func (p *Primary) Attach(node string) (*Replica, error) {
	n := p.net.Node(node)
	if n == nil {
		return nil, fmt.Errorf("dbrepl: no such node %s", node)
	}
	db := sqldb.New()
	db.Restore(p.db.Snapshot())
	r := &Replica{DB: db, node: n}
	p.replicas = append(p.replicas, r)
	return r, nil
}

// ship streams one committed write statement to every replica,
// asynchronously and in order per replica. The write hook carries no process
// parameter, so the causal context is read off the environment's currently
// executing process (the one whose statement committed).
func (p *Primary) ship(sql string, args []sqldb.Value) {
	if len(p.replicas) == 0 {
		return
	}
	p.mShipped.Inc()
	argsCopy := append([]sqldb.Value(nil), args...)
	now := p.env.Now()
	for _, r := range p.replicas {
		st := stmt{sql: sql, args: argsCopy, ctx: trace.CaptureEnv(p.env), committedAt: now}
		if len(r.backlog) > 0 || !p.shipTo(r, st, trace.CauseService) {
			r.backlog = append(r.backlog, st)
			if len(r.backlog) == 1 {
				p.env.After(recheckEvery, func() { p.drain(r) })
			}
		}
	}
}

// drain ships r's backlog in commit order while the path is up, and probes
// again recheckEvery later if it is still down.
func (p *Primary) drain(r *Replica) {
	for i, st := range r.backlog {
		if !p.shipTo(r, st, trace.CauseRetry) {
			r.backlog = r.backlog[i:]
			p.env.After(recheckEvery, func() { p.drain(r) })
			return
		}
	}
	r.backlog = nil
}

// shipTo sends one statement to one replica and schedules its in-order
// apply; it reports false, sending nothing, when the path is down.
func (p *Primary) shipTo(r *Replica, st stmt, cause trace.Cause) bool {
	delay, err := p.net.Route(p.node, r.node.ID).Delay(statementBytes)
	if err != nil {
		return false
	}
	arrival := p.env.Now() + delay
	if arrival < r.lastArrival {
		arrival = r.lastArrival
	}
	r.lastArrival = arrival
	p.env.At(arrival, func() {
		p.env.Spawn("dbrepl-apply", func(proc *sim.Proc) {
			defer trace.Adoptf(proc, st.ctx, "dbrepl", r.node.ID, cause, "replay ", st.sql[:min(len(st.sql), 24)], "")()
			trace.Use(proc, r.node.CPU, r.node.ID, applyCPU)
			res, err := r.DB.Exec(st.sql, st.args...)
			if err != nil {
				p.mFailed.Inc()
				return
			}
			trace.Use(proc, r.node.CPU, r.node.ID, res.Cost)
			p.mApplied.Inc()
			p.mLag.Observe(proc.Now() - st.committedAt)
		})
	})
	return true
}
