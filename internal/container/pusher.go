package container

import (
	"fmt"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
	"wadeploy/internal/trace"
)

// PushTarget names an updater façade deployment.
type PushTarget struct {
	Server string // node ID
	Facade string // updater façade bean name
}

// Pusher is the one update propagator. What it does follows from two values:
// its transport — RMI to the per-edge updater façades, or one JMS topic that
// MDB subscribers on the edges drain — and its window: 0 delivers inside the
// commit, on the writer's process; a positive window coalesces commits
// last-writer-wins and flushes once per window, off the writer's path.
//
//	transport  window  descriptor word  the writer             counted in
//	RMI        0       sync             blocks on every edge   container_sync_push*
//	RMI        w       lease            returns at once        push_batch_*
//	JMS        0       async            pays the local publish container_async_publishes_total
//	JMS        w       async + window   returns at once        push_batch_*
//
// Zero staleness is the first row (Section 4.3: write response time grows
// with the number of replicas because the pushes run one after the other);
// the lease bounds staleness by the window plus one-way WAN delivery; the
// topic rows are Section 4.5. A window's flush carries M beans in one message
// per destination and N commits to one entity as its last-writer delta.
type Pusher struct {
	srv    *Server
	topic  string
	window time.Duration
	bytes  int // full-state record size

	// targets are the destinations. The topic is a JMS pusher's only one,
	// held as the zero PushTarget so every row walks the same list.
	targets []pushDest

	// part and scopes partition-scope targets; scopes outlives RemoveTarget.
	part   *PartitionSpec
	scopes map[PushTarget][]bool

	// BestEffort makes an unreachable replica non-fatal to a writer that
	// blocks on it: the push is skipped (and counted) instead of failing the
	// transaction. The default is strict, preserving the paper's
	// zero-staleness guarantee; best-effort trades consistency for write
	// availability during WAN partitions. A flush has no writer to fail.
	BestEffort bool

	// Parallel is the ablation switch that brackets the paper's measured
	// Commit times (EXPERIMENTS.md): a blocking fan-out runs one process per
	// destination, as every flush does, and the writer waits for roughly one
	// push latency instead of the sum.
	Parallel bool

	buf   coalescer
	armed bool
	held  sim.Free[[]Update] // apply-call payloads of the deliveries in flight

	mDelivered *metrics.Counter // messages that reached their destination, in the row's family
	mSkipped   *metrics.Counter // RMI, window 0
	mPushNs    *metrics.Histogram
	mCommits   *metrics.Counter // window > 0
	mCoalesced *metrics.Counter
	mFlushes   *metrics.Counter
	mBytes     *metrics.Counter
}

// pushDest is one destination and the partitions it owns (nil: all).
type pushDest struct {
	PushTarget
	owns []bool
}

// keep returns the updates (of partitions parts) d owns: updates itself when
// it owns them all, a copy only when the batch splits.
func (d *pushDest) keep(updates []Update, parts []int) []Update {
	for i, p := range parts {
		if !d.owns[p] {
			batch := updates[:i:i] // full, so the first append copies
			for j := i + 1; j < len(parts); j++ {
				if d.owns[parts[j]] {
					batch = append(batch, updates[j])
				}
			}
			return batch
		}
	}
	return updates
}

// NewPusher creates a propagator on srv. A topic selects the JMS transport;
// without one the pusher sends RMI to the targets AddTarget gives it. Each
// row registers only its own metric family, so a run that never builds a row
// exports a snapshot without it.
func NewPusher(srv *Server, topic string, window time.Duration, msgBytes int) (*Pusher, error) {
	if window < 0 {
		return nil, fmt.Errorf("container: pusher on %s: negative window", srv.name)
	}
	if msgBytes <= 0 {
		msgBytes = 1024
	}
	ps := &Pusher{srv: srv, topic: topic, window: window, bytes: msgBytes, scopes: map[PushTarget][]bool{}}
	if topic != "" {
		if srv.jms == nil {
			return nil, fmt.Errorf("container: pusher on %s: no JMS provider", srv.name)
		}
		srv.jms.CreateTopic(topic)
		ps.targets = []pushDest{{}}
	}
	reg := srv.Env().Metrics()
	switch {
	case window > 0:
		ps.mCommits = reg.Counter("push_batch_commits_total")
		ps.mCoalesced = reg.Counter("push_batch_coalesced_total")
		ps.mFlushes = reg.Counter("push_batch_flushes_total")
		ps.mDelivered = reg.Counter("push_batch_messages_total")
		ps.mBytes = reg.Counter("push_batch_bytes_total")
	case topic != "":
		ps.mDelivered = reg.Counter("container_async_publishes_total")
	default:
		ps.mDelivered = reg.Counter("container_sync_pushes_total")
		ps.mSkipped = reg.Counter("container_sync_push_skipped_total")
		ps.mPushNs = reg.Histogram("container_sync_push_ns")
	}
	return ps, nil
}

// AddTarget attaches another replica destination to an RMI pusher at runtime
// (demand-driven redeployment, resume after suspension). Adding an existing
// target is a no-op.
func (ps *Pusher) AddTarget(t PushTarget) {
	for _, cur := range ps.targets {
		if cur.PushTarget == t {
			return
		}
	}
	ps.targets = append(ps.targets, pushDest{t, ps.scopes[t]})
}

// RemoveTarget detaches a replica destination at runtime (suspension of
// pushes to an unreachable edge). Removing an absent target is a no-op. The
// target's partition scope, if any, stays registered so a later re-add
// keeps it.
func (ps *Pusher) RemoveTarget(t PushTarget) {
	for i, cur := range ps.targets {
		if cur.PushTarget == t {
			ps.targets = append(ps.targets[:i], ps.targets[i+1:]...)
			return
		}
	}
}

// SetTargetPartitions scopes pushes to t to the keys in spec's owned
// partitions (a partitioned replica's slice of the key space); a commit or
// window with nothing for t sends it no message. Scoped targets share the
// pusher's one bean, and so its spec. A nil spec restores full propagation.
func (ps *Pusher) SetTargetPartitions(t PushTarget, spec *PartitionSpec, owned []int) {
	var owns []bool
	if spec != nil {
		ps.part, owns = spec, spec.OwnedSet(owned)
	}
	ps.scopes[t] = owns
	for i := range ps.targets {
		if ps.targets[i].PushTarget == t {
			ps.targets[i].owns = owns
		}
	}
}

// batchBytes sizes a message: deltas and deletes ride their WireBytes
// estimate, full-state updates the configured record size.
func (ps *Pusher) batchBytes(updates []Update) int {
	total := 0
	for _, u := range updates {
		if u.Delta || u.Deleted {
			total += u.WireBytes()
		} else {
			total += ps.bytes
		}
	}
	if total <= 0 {
		total = ps.bytes
	}
	return total
}

// Propagate takes a commit. With a window it coalesces the commit into the
// pending batch and returns — the first commit of an idle window arms the
// flush timer, so an idle system schedules no events at all. Without one it
// delivers before returning.
func (ps *Pusher) Propagate(p *sim.Proc, updates []Update) error {
	if ps.window > 0 {
		for _, u := range updates {
			ps.mCommits.Inc()
			if ps.buf.add(u) {
				ps.mCoalesced.Inc()
			}
		}
		if !ps.armed {
			ps.armed = true
			ps.srv.Env().After(ps.window, ps.flush)
		}
		return nil
	}
	if ps.topic == "" {
		// Sequential pushes nest their rmi spans right here, so the fan-out
		// span's self-time is ~0 and each call claims its own cause. Parallel
		// pushes run on spawned processes (async spans), leaving the wait for
		// the slowest target as this span's self-time — wide-area wait
		// whenever any target is across a WAN link.
		cause := trace.CauseService
		if ps.parallel() && trace.Active(p) {
			for _, t := range ps.targets {
				if t.Server != ps.srv.name && ps.srv.net.WideArea(ps.srv.name, t.Server) {
					cause = trace.CauseWAN
					break
				}
			}
		}
		defer trace.Op(p, "push", "sync fan-out", ps.srv.name, "", cause)()
		start := p.Now()
		defer func() { ps.mPushNs.Observe(p.Now() - start) }()
	}
	return ps.send(p, updates)
}

// flush ships the window's batch. It runs from the timer callback, where no
// process exists, so send spawns one per destination.
func (ps *Pusher) flush() {
	ps.armed = false
	ps.mFlushes.Inc()
	_ = ps.send(nil, ps.buf.take())
}

// send ships updates to every destination, each getting the part its scope
// keeps. A writer (p != nil) blocks until all of them applied it — one after
// the other on its own process, or with Parallel all at once on a process
// each — and sees the first failure unless BestEffort. A flush (p == nil) has
// nobody waiting, so nobody to fail: the deliveries finish on their own and
// the replica's MaxStaleness fetch path is the safety net for a lost one.
func (ps *Pusher) send(p *sim.Proc, updates []Update) error {
	inline := p != nil && !ps.parallel()
	payload := ps.batchBytes(updates)
	parts := make([]int, 0, 4)
	if ps.part != nil {
		for _, u := range updates {
			parts = append(parts, ps.part.PartitionFor(u.PK))
		}
	}
	var waits []*sim.Promise[struct{}]
	for _, d := range ps.targets {
		batch, pl, t := updates, payload, d.PushTarget
		if d.owns != nil {
			if batch = d.keep(updates, parts); len(batch) == 0 {
				continue
			}
			pl = ps.batchBytes(batch)
		}
		if !inline {
			if done := ps.spawn(p, t, pl, batch); done != nil {
				waits = append(waits, done)
			}
		} else if err := ps.deliver(p, t, pl, batch); err != nil && !ps.skip() {
			return err
		}
	}
	var firstErr error
	for _, done := range waits {
		if _, err := sim.Await(p, done); err != nil && !ps.skip() && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// parallel reports whether a blocking fan-out overlaps its pushes.
func (ps *Pusher) parallel() bool { return ps.Parallel && len(ps.targets) > 1 }

// skip reports whether a failed blocking push may be skipped, counting it.
func (ps *Pusher) skip() bool {
	if ps.BestEffort {
		ps.mSkipped.Inc()
	}
	return ps.BestEffort
}

// spawn runs one delivery on its own process. For a waiting writer the
// process continues the writer's trace and the returned promise carries the
// outcome; a flush gets nil.
func (ps *Pusher) spawn(p *sim.Proc, t PushTarget, payload int, batch []Update) *sim.Promise[struct{}] {
	env := ps.srv.Env()
	var done *sim.Promise[struct{}]
	var ctx trace.Ctx
	if p != nil {
		done, ctx = sim.NewPromise[struct{}](env), trace.Capture(p)
	}
	env.Spawn("push:"+t.Server+ps.topic, func(pp *sim.Proc) {
		switch {
		case done != nil:
			defer trace.Adopt(pp, ctx, "push", "apply batch", t.Server, trace.CauseService)()
		case ps.topic == "":
			defer trace.Op(pp, "push", "lease batch", ps.srv.name, t.Server, trace.CauseService)()
		}
		err := ps.deliver(pp, t, payload, batch)
		switch {
		case done == nil:
		case err != nil:
			done.Fail(err)
		default:
			done.Resolve(struct{}{})
		}
	})
	return done
}

// deliver carries one message to one destination on p — publish on the
// topic, or the bulk apply call on t's updater façade — and counts it once it
// got there.
func (ps *Pusher) deliver(p *sim.Proc, t PushTarget, payload int, batch []Update) error {
	if ps.topic != "" {
		label := "publish "
		if ps.window > 0 {
			label = "batch publish "
		}
		defer trace.Opf(p, "jms", ps.srv.name, "", trace.CauseService, label, ps.topic, "")()
		if err := ps.srv.jms.Publish(p, ps.srv.name, ps.topic, batch, payload); err != nil {
			return fmt.Errorf("async push: %w", err)
		}
	} else {
		stub, err := ps.srv.StubFor(p, t.Server, t.Facade)
		if err == nil {
			held := ps.held.Take(batch) // one recycled pointer: the payload boxes nothing
			_, err = stub.InvokeSized(p, MethodApply, payload, 64, held)
			ps.held.Put(held)
		}
		if err != nil {
			return fmt.Errorf("sync push to %s/%s: %w", t.Server, t.Facade, err)
		}
	}
	ps.mDelivered.Inc()
	if ps.window > 0 {
		ps.mBytes.Add(int64(payload))
	}
	return nil
}
