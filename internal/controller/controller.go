// Package controller closes the loop from static placement advisor to
// online re-placement: a control process running inside the simulation
// observes the workload (flight-recorder page mix, metrics-registry deltas,
// reachability of the edge servers) on a fixed virtual-clock epoch tick,
// re-prices the placement candidates with the planner's cost model over the
// *observed* page mix, and — when the predicted win clears a hysteresis
// threshold for enough consecutive epochs — executes live migrations that
// extend the replica bundle to the edges while traffic flows. It also
// reacts to faults: an edge unreachable for several epochs has its
// synchronous pushes suspended (retirement), and a recovered edge is
// resynchronized by the same snapshot migration that extends the bundle
// before pushes resume — the fault → detect → re-place → recover story.
//
// The controller knows the application only through its core.Wiring, wired
// onto the servers the bundle starts on (none, for a run it extends), and the
// planner.Model it re-plans with: an extension's cut-over is Wiring.ExtendTo
// plus the replayed snapshot, in one simulation event, which binds the
// application's edge façades to the new replicas and caches. The policy a
// run reached is recorded once, in Report.FinalConfig.
//
// Determinism contract: every decision derives from the virtual clock
// (epoch ticks are p.Sleep on the env), from deterministic observations
// (reachability probes, counter values, the blame aggregator's sorted
// profile), and from a dedicated RNG stream (env seed XOR ctrlSeedSalt)
// used only for migration retry backoff jitter — the controller never
// touches env.Rand, so a controller-off run is byte-identical to a build
// without the subsystem, and a controller-on run replays identically at any
// -parallel/-shards setting. All controller_* metric families register
// lazily in Start, following the resilience and tracing layers' pattern.
package controller

import (
	"fmt"
	"math/rand"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/metrics"
	"wadeploy/internal/planner"
	"wadeploy/internal/sim"
	"wadeploy/internal/trace"
)

// ctrlSeedSalt decorrelates the controller's RNG stream from the env seed
// (and from the fault stream's salt); the derivation (seed XOR salt) is part
// of the reproducibility contract documented in DESIGN.md §7.
const ctrlSeedSalt = 0x6374726c // "ctrl"

// Options tunes the controller's epoch clock.
type Options struct {
	// Epoch is the virtual-time observation interval (default 30s).
	Epoch time.Duration
}

// The controller's decision thresholds and migration limits.
const (
	// hysteresis is the minimum predicted fractional win (1 − target/current
	// session mean) before an extension is considered.
	hysteresis = 0.10

	// confirmEpochs is how many consecutive epochs the win must persist
	// before the controller acts — the damper that keeps a transient spike
	// from triggering a migration.
	confirmEpochs = 2

	// suspendAfter is how many consecutive unreachable epochs an edge
	// tolerates before its synchronous pushes are suspended.
	suspendAfter = 3

	// transferChunk is the bulk state-transfer chunk size in bytes; each
	// chunk re-validates the path, so smaller chunks detect mid-transfer
	// link failures sooner.
	transferChunk = 64 << 10

	// maxRetries bounds transfer retry attempts per migration.
	maxRetries = 8

	// retryBackoff is the base backoff between transfer retries, doubled
	// per attempt up to 16× and jittered from the controller's dedicated
	// RNG stream.
	retryBackoff = 2 * time.Second

	// maxCatchUpRounds bounds the pre-copy catch-up iterations that ship
	// updates buffered during a transfer; whatever still accumulates after
	// the last round is replayed at cut-over.
	maxCatchUpRounds = 4
)

// Config binds a controller to a deployment.
type Config struct {
	// Deployment and Wiring identify the system under control. The wiring
	// must exist and may already cover some servers; one wired onto no
	// server leaves the controller every extension decision.
	Deployment *core.Deployment
	Wiring     *core.Wiring

	// Model is what the controller re-plans with: each epoch the planner
	// search re-runs on the model reweighted by the flight recorder's
	// observed page mix, and the controller extends when the wiring's target
	// placement beats the starting one (the remote-façade tier an unwired
	// edge serves from) by the hysteresis bar.
	Model *planner.Model

	// Seed is the run's seed; the controller derives its private RNG
	// stream from it (seed XOR ctrlSeedSalt).
	Seed int64

	Options Options
}

// EventKind classifies one entry of the adaptation log.
type EventKind string

// The controller's observable decisions.
const (
	EventFaultDetected EventKind = "fault-detected"
	EventRecovered     EventKind = "recovered"
	EventExtendDecided EventKind = "extend-decided"
	EventMigrated      EventKind = "migrated"
	EventMigrateFailed EventKind = "migration-failed"
	EventSuspended     EventKind = "suspended"
	EventResynced      EventKind = "resynced"
)

// Event is one timestamped controller decision or observation.
type Event struct {
	At     time.Duration
	Epoch  int
	Kind   EventKind
	Server string  // edge concerned, when applicable
	Win    float64 // predicted fractional win (extend decisions)
	Detail string
}

// Migration records one live state migration end to end.
type Migration struct {
	Server        string
	Resync        bool // state refresh of an already-wired edge
	Start, End    time.Duration
	SnapshotBytes int // base image shipped
	CatchUpBytes  int // pre-copy catch-up rounds shipped
	Rounds        int // catch-up rounds run
	Retries       int // transfer retries (link flaps mid-transfer)
	Replayed      int // drain-buffered updates replayed at cut-over
	Failed        bool
	Err           string
}

// Report is the controller's run summary.
type Report struct {
	Epochs     int
	Events     []Event
	Migrations []Migration

	// Extended reports whether the extension program completed on every
	// edge; FinalConfig is the policy the final placement deploys, edge
	// database replicas included.
	Extended    bool
	FinalConfig core.Policy
}

// Controller is the online re-placement control loop.
type Controller struct {
	cfg  Config
	opts Options
	env  *sim.Env
	rng  *rand.Rand
	tr   *trace.Tracer

	epoch    int
	confirm  int
	decided  bool // extension program active
	extended bool // extension program complete
	current  core.Policy
	target   core.Policy

	wideCtr  *metrics.Counter
	lastWide int64 // wide-area call count at last tick (activity signal)

	down      map[string]int // consecutive unreachable epochs per edge
	suspended map[string]bool
	needSync  map[string]bool // wired edges whose state must be resynced

	events []Event
	migs   []Migration

	mEpochs    *metrics.Counter
	mDecisions *metrics.CounterVec
	mMigs      *metrics.Counter
	mMigFails  *metrics.Counter
	mBytes     *metrics.Counter
	mRetries   *metrics.Counter
	mReplayed  *metrics.Counter
	mMigNs     *metrics.Histogram
}

// Start validates the configuration, registers the controller_* metric
// families (lazily — controller-off runs never see them) and spawns the
// epoch-tick control process on the deployment's environment.
func Start(cfg Config) (*Controller, error) {
	if cfg.Deployment == nil {
		return nil, fmt.Errorf("controller: nil deployment")
	}
	if cfg.Wiring == nil {
		return nil, fmt.Errorf("controller: nil wiring")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("controller: nil planner model")
	}
	opts := cfg.Options
	if opts.Epoch <= 0 {
		opts.Epoch = 30 * time.Second
	}
	env := cfg.Deployment.Env
	reg := env.Metrics()
	c := &Controller{
		cfg:  cfg,
		opts: opts,
		env:  env,
		rng:  rand.New(rand.NewSource(cfg.Seed ^ ctrlSeedSalt)),
		tr:   trace.FromEnv(env),

		current:   core.RemoteFacade,
		target:    cfg.Wiring.Provides(),
		wideCtr:   reg.Counter("rmi_wide_area_calls_total"),
		down:      make(map[string]int),
		suspended: make(map[string]bool),
		needSync:  make(map[string]bool),

		mEpochs:    reg.Counter("controller_epochs_total"),
		mDecisions: reg.CounterVec("controller_decisions_total", "kind"),
		mMigs:      reg.Counter("controller_migrations_total"),
		mMigFails:  reg.Counter("controller_migration_failures_total"),
		mBytes:     reg.Counter("controller_migration_bytes_total"),
		mRetries:   reg.Counter("controller_transfer_retries_total"),
		mReplayed:  reg.Counter("controller_replayed_updates_total"),
		mMigNs:     reg.Histogram("controller_migration_ns"),
	}
	env.Spawn("controller", func(p *sim.Proc) {
		for {
			p.Sleep(c.opts.Epoch)
			c.tick(p)
		}
	})
	return c, nil
}

// record appends an adaptation-log entry and bumps its decision counter.
func (c *Controller) record(p *sim.Proc, ev Event) {
	ev.At = p.Now()
	ev.Epoch = c.epoch
	c.events = append(c.events, ev)
	c.mDecisions.With(string(ev.Kind)).Inc()
}

// tick runs one observe → re-plan → act epoch.
func (c *Controller) tick(p *sim.Proc) {
	c.epoch++
	c.mEpochs.Inc()
	c.watchReachability(p)
	c.replan(p)
	c.act(p)
}

// watchReachability probes main ↔ edge liveness (a free control-plane
// heartbeat: routing queries only, no traffic, no RNG), detecting
// partitions and crashes, suspending pushes to long-dead edges and
// scheduling resyncs when they return.
func (c *Controller) watchReachability(p *sim.Proc) {
	d := c.cfg.Deployment
	w := c.cfg.Wiring
	main := d.Main.Name()
	for _, edge := range d.Edges {
		name := edge.Name()
		if d.Net.Route(main, name).Reachable() {
			if c.down[name] > 0 {
				c.record(p, Event{Kind: EventRecovered, Server: name,
					Detail: fmt.Sprintf("unreachable for %d epochs", c.down[name])})
				c.down[name] = 0
				if w.DeployedOn(name) {
					// State diverged while cut off — even without an
					// explicit suspension, best-effort pushes were dropped
					// on the dead path — so refresh the replicas before
					// trusting them again.
					c.needSync[name] = true
				}
			}
			continue
		}
		c.down[name]++
		if c.down[name] == 1 {
			c.record(p, Event{Kind: EventFaultDetected, Server: name,
				Detail: "main<->edge path lost"})
		}
		if c.down[name] == suspendAfter && w.DeployedOn(name) && !c.suspended[name] {
			w.SuspendTargets(name)
			c.suspended[name] = true
			c.record(p, Event{Kind: EventSuspended, Server: name,
				Detail: fmt.Sprintf("sync pushes parked after %d unreachable epochs", c.down[name])})
		}
	}
}

// replan re-prices the placement on the observed workload and arms the
// extension program when the predicted win clears the hysteresis bar for
// confirmEpochs consecutive epochs.
func (c *Controller) replan(p *sim.Proc) {
	if c.decided || c.extended {
		return
	}
	win, detail, ok := c.predictedWin(p)
	if !ok || win < hysteresis {
		c.confirm = 0
		return
	}
	c.confirm++
	if c.confirm < confirmEpochs {
		return
	}
	c.decided = true
	c.confirm = 0
	c.record(p, Event{Kind: EventExtendDecided, Win: win, Detail: detail})
}

// predictedWin computes the extension trigger signal: the fractional
// session-mean win of the wiring's target placement over the current one,
// priced on the observed page mix.
func (c *Controller) predictedWin(p *sim.Proc) (win float64, detail string, ok bool) {
	wide := c.wideCtr.Value()
	wideDelta := wide - c.lastWide
	c.lastWide = wide

	var shares map[string]map[string]float64
	observed := "modeled mix"
	if c.tr != nil {
		shares = c.tr.Aggregator().Profile().VisitShares()
		if len(shares) > 0 {
			observed = "observed mix"
		}
	}
	res, err := planner.Search(c.cfg.Model.WithObservedVisits(shares))
	if err != nil {
		return 0, "", false
	}
	var curCost, tgtCost time.Duration
	for _, r := range res.Ranked {
		if r.Policy == c.current {
			curCost = r.Overall
		}
		if r.Policy == c.target {
			tgtCost = r.Overall
		}
	}
	if curCost <= 0 || tgtCost <= 0 || tgtCost >= curCost {
		return 0, "", false
	}
	win = 1 - float64(tgtCost)/float64(curCost)
	detail = fmt.Sprintf("%s: predicted %v -> %v (%s, %d wide-area calls this epoch, best=%s)",
		observed, curCost.Round(time.Millisecond), tgtCost.Round(time.Millisecond),
		c.target.Patterns(), wideDelta, res.Best().Policy.Patterns())
	return win, detail, true
}

// act advances at most one migration per epoch: resyncs take priority (a
// recovered edge is serving stale state), then the extension program covers
// the next reachable unwired edge. One migration per epoch bounds the
// control traffic and keeps decisions attributable to their epoch.
func (c *Controller) act(p *sim.Proc) {
	d := c.cfg.Deployment
	w := c.cfg.Wiring
	main := d.Main.Name()

	for _, edge := range d.Edges {
		name := edge.Name()
		if !c.needSync[name] || !d.Net.Route(main, name).Reachable() {
			continue
		}
		m := c.migrate(p, edge, true)
		if m.Failed {
			c.record(p, Event{Kind: EventMigrateFailed, Server: name, Detail: m.Err})
			return
		}
		c.needSync[name] = false
		if c.suspended[name] {
			w.ResumeTargets(name)
			c.suspended[name] = false
		}
		c.record(p, Event{Kind: EventResynced, Server: name,
			Detail: fmt.Sprintf("%d bytes, %d updates replayed (snapshot)", m.SnapshotBytes+m.CatchUpBytes, m.Replayed)})
		return
	}

	if !c.decided {
		return
	}
	for _, edge := range d.Edges {
		name := edge.Name()
		if w.DeployedOn(name) || !d.Net.Route(main, name).Reachable() {
			continue
		}
		m := c.migrate(p, edge, false)
		if m.Failed {
			c.record(p, Event{Kind: EventMigrateFailed, Server: name, Detail: m.Err})
			return
		}
		c.record(p, Event{Kind: EventMigrated, Server: name,
			Detail: fmt.Sprintf("%d bytes, %d catch-up rounds, %d updates replayed", m.SnapshotBytes+m.CatchUpBytes, m.Rounds, m.Replayed)})
		break
	}
	// Extension completes when every edge is wired (unreachable edges keep
	// the program armed; they are picked up after recovery).
	for _, edge := range d.Edges {
		if !w.DeployedOn(edge.Name()) {
			return
		}
	}
	c.decided = false
	c.extended = true
	c.current = c.target
}

// Report snapshots the adaptation log.
func (c *Controller) Report() *Report {
	final := c.current
	if c.extended {
		final = c.cfg.Wiring.Extends() // the priced target, edge database replicas included
	}
	return &Report{
		Epochs:      c.epoch,
		Events:      append([]Event(nil), c.events...),
		Migrations:  append([]Migration(nil), c.migs...),
		Extended:    c.extended,
		FinalConfig: final,
	}
}
