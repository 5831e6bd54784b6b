package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/faults"
	"wadeploy/internal/simnet"
	"wadeploy/internal/trace"
	"wadeploy/internal/workload"
)

// AdaptArm is one arm of the adaptation experiment: a full run plus the
// time-bucketed view of what the partitioned edge's clients experienced.
type AdaptArm struct {
	// Label names the arm: "static", "resilient", "adaptive".
	Label string
	// Config is the deployed policy; the adaptive arm deploys it deferred
	// and extends toward it.
	Config core.Policy
	// Controller reports whether the re-placement controller ran.
	Controller bool
	// Full is the run result; Full.Adapt is non-nil on the adaptive arm.
	Full *Result
	// Obs is the per-arm request accumulator on the partitioned edge's
	// client node (10s buckets over the whole run, warm-up included).
	Obs *workload.WindowObserver
}

// AdaptReport is the adaptation experiment's outcome: the canonical fault
// schedule replayed against a static remote-façade deployment, the PR 5
// static-resilience deployment, and the controller-driven adaptive
// deployment, all under identical seeds and workloads.
type AdaptReport struct {
	App       AppID
	Schedule  *faults.Schedule
	Window    [2]time.Duration // scored outage window
	Node      string           // scored client node
	Warmup    time.Duration
	Horizon   time.Duration // run end (warm-up + measured duration)
	Static    *AdaptArm
	Resilient *AdaptArm
	Adaptive  *AdaptArm
}

// Arms returns the three arms in presentation order.
func (r *AdaptReport) Arms() []*AdaptArm {
	return []*AdaptArm{r.Static, r.Resilient, r.Adaptive}
}

// adaptBucket is the WindowObserver bucket width: fine enough to separate
// the pre-migration, steady-state and outage phases of a quick run.
const adaptBucket = 10 * time.Second

// RunAdapt runs the online re-placement experiment for PetStore: three arms
// under the same fault schedule (the canonical outage when opts.Schedule is
// nil) with the resilience machinery enabled:
//
//   - static: the remote-façade deployment, controller off — what the
//     adaptive run would be stuck with if it never re-placed;
//   - resilient: the async-updates deployment, controller off — the PR 5
//     static-resilience baseline the availability comparison is against;
//   - adaptive: starts at remote façade with the controller on; the
//     controller observes the traced page mix, extends the replica bundle
//     to the edges by live migration, suspends pushes across the partition
//     and resynchronizes the stale edge after it heals.
//
// cfg is the adaptive arm's extension target (and the resilient arm's
// policy); the adaptive arm deploys it deferred, which needs a replica bundle
// to extend. opts.Adaptive tunes the adaptive arm's controller and applies to
// no other arm. Runs are deterministic: the same seed yields byte-identical
// reports at any Parallelism.
func RunAdapt(app AppID, cfg core.Policy, opts RunOptions) (*AdaptReport, error) {
	if app != PetStore {
		return nil, fmt.Errorf("experiment: adapt is PetStore-only")
	}
	if opts.Schedule == nil {
		opts.Schedule = faults.Canonical(opts.Warmup, opts.Duration)
	}
	opts.Resilience = true
	adaptive := opts.Adaptive
	if adaptive == nil {
		adaptive = &controller.Options{}
	}
	window := opts.Schedule.Window
	if window == [2]time.Duration{} {
		window = [2]time.Duration{opts.Warmup, opts.Warmup + opts.Duration}
	}
	node := simnet.NodeClientsEdge1

	rep := &AdaptReport{
		App:      app,
		Schedule: opts.Schedule,
		Window:   window,
		Node:     node,
		Warmup:   opts.Warmup,
		Horizon:  opts.Warmup + opts.Duration,
	}
	arms := []*AdaptArm{
		{Label: "static", Config: core.RemoteFacade},
		{Label: "resilient", Config: cfg},
		{Label: "adaptive", Config: cfg, Controller: true},
	}
	err := forEachParallel(opts.Parallelism, len(arms), func(i int) error {
		arm := arms[i]
		obs := workload.NewWindowObserver(node, adaptBucket)
		ropts := opts
		ropts.Observer = obs.Observe
		ropts.Adaptive = nil
		if arm.Controller {
			ropts.Adaptive = adaptive
			if ropts.Trace == nil {
				// The controller re-plans on the flight recorder's observed
				// page mix; tracing adds no delays and draws no randomness.
				ropts.Trace = &trace.Options{SampleEvery: 4}
			}
		}
		full, err := Run(app, arm.Config, ropts)
		if err != nil {
			return err
		}
		arm.Full = full
		arm.Obs = obs
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Static, rep.Resilient, rep.Adaptive = arms[0], arms[1], arms[2]
	return rep, nil
}

// AdaptLag is the controller's reaction to one fault onset.
type AdaptLag struct {
	Onset     time.Duration
	Detected  time.Duration // first fault-detected event at/after the onset (0 = none)
	Recovered time.Duration // first resync completing after the onset (0 = none)
}

// Lags measures the adaptation lag against every fault onset of the
// schedule: how long after each onset the controller first observed a lost
// path, and when the post-fault resynchronization completed.
func (r *AdaptReport) Lags() []AdaptLag {
	var out []AdaptLag
	ad := r.Adaptive.Full.Adapt
	if ad == nil {
		return out
	}
	for _, onset := range r.Schedule.Onsets() {
		lag := AdaptLag{Onset: onset}
		for _, ev := range ad.Events {
			if ev.At < onset {
				continue
			}
			if lag.Detected == 0 && ev.Kind == controller.EventFaultDetected {
				lag.Detected = ev.At
			}
			if lag.Recovered == 0 && ev.Kind == controller.EventResynced {
				lag.Recovered = ev.At
			}
		}
		out = append(out, lag)
	}
	return out
}

// MigrationSpan returns the virtual-time span of the adaptive arm's
// extension program: the start of the first migration and the end of the
// last extension migration (resyncs excluded). ok is false if the
// controller never migrated.
func (r *AdaptReport) MigrationSpan() (first, last time.Duration, ok bool) {
	ad := r.Adaptive.Full.Adapt
	if ad == nil {
		return 0, 0, false
	}
	for _, m := range ad.Migrations {
		if m.Resync || m.Failed {
			continue
		}
		if !ok || m.Start < first {
			first = m.Start
		}
		if m.End > last {
			last = m.End
		}
		ok = true
	}
	return first, last, ok
}

// PostWindow returns the longest fault-free stretch of virtual time after
// the adaptive arm's extension program completed — the window the
// steady-state post-migration latency comparison scores. ok is false when
// the controller never migrated or no fault-free time remained.
func (r *AdaptReport) PostWindow() (from, to time.Duration, ok bool) {
	_, last, migrated := r.MigrationSpan()
	if !migrated || last >= r.Horizon {
		return 0, 0, false
	}
	// Merge the schedule's fault-covered intervals, then walk the gaps
	// after the last migration and keep the widest.
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, e := range r.Schedule.Events {
		ivs = append(ivs, iv{e.At, e.At + e.Duration})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var merged []iv
	for _, v := range ivs {
		if n := len(merged); n > 0 && v.a <= merged[n-1].b {
			if v.b > merged[n-1].b {
				merged[n-1].b = v.b
			}
			continue
		}
		merged = append(merged, v)
	}
	cursor := last
	for _, v := range merged {
		if v.b <= cursor {
			continue
		}
		if v.a > cursor && v.a-cursor > to-from {
			from, to = cursor, v.a
		}
		cursor = v.b
	}
	if cursor < r.Horizon && r.Horizon-cursor > to-from {
		from, to = cursor, r.Horizon
	}
	return from, to, to > from
}

// FormatAdapt renders the adaptation report: the controller's decision
// timeline, the adaptation lag against each fault onset, availability on
// the partitioned edge during the outage window across the three arms, and
// the steady-state latency before and after the extension program.
func FormatAdapt(r *AdaptReport) string {
	var b strings.Builder
	ad := r.Adaptive.Full.Adapt

	fmt.Fprintf(&b, "Online re-placement under schedule %q (target %s).\n\n",
		r.Schedule.Name, r.Resilient.Config.Title())

	fmt.Fprintln(&b, "Controller timeline:")
	if ad == nil || len(ad.Events) == 0 {
		fmt.Fprintln(&b, "  (no controller events)")
	}
	if ad != nil {
		for _, ev := range ad.Events {
			loc := ""
			if ev.Server != "" {
				loc = " " + ev.Server
			}
			detail := ev.Detail
			if ev.Win > 0 {
				detail = fmt.Sprintf("win %.1f%%; %s", 100*ev.Win, detail)
			}
			fmt.Fprintf(&b, "  %8s  epoch %-3d %-17s%s  %s\n",
				ev.At.Round(time.Second), ev.Epoch, ev.Kind, loc, detail)
		}
		fmt.Fprintf(&b, "  epochs=%d migrations=%d extended=%v final=%s\n",
			ad.Epochs, len(ad.Migrations), ad.Extended, ad.FinalConfig.Title())
	}

	fmt.Fprintln(&b, "\nAdaptation lag (virtual time after each fault onset):")
	for _, lag := range r.Lags() {
		det, rec := "-", "-"
		if lag.Detected > 0 {
			det = fmt.Sprint((lag.Detected - lag.Onset).Round(time.Second))
		}
		if lag.Recovered > 0 {
			rec = fmt.Sprint((lag.Recovered - lag.Onset).Round(time.Second))
		}
		fmt.Fprintf(&b, "  onset %8s: detected +%s, resynced +%s\n",
			lag.Onset.Round(time.Second), det, rec)
	}

	fmt.Fprintf(&b, "\nAvailability on %s during the outage window [%v, %v]:\n",
		r.Node, r.Window[0].Round(time.Second), r.Window[1].Round(time.Second))
	for _, arm := range r.Arms() {
		w := arm.Obs.Range(r.Window[0], r.Window[1])
		fmt.Fprintf(&b, "  %-10s (%-22s) %6.1f%%  ok=%-6d fail=%-6d mean-ok=%s\n",
			arm.Label, arm.Config.Title(), 100*w.Availability(), w.OK, w.Fail, ms(w.Mean())+"ms")
	}

	// Steady-state latency: the same two stretches scored for every arm —
	// before the adaptive arm's first migration, and the longest
	// fault-free window after its extension program completed.
	first, _, migrated := r.MigrationSpan()
	postFrom, postTo, havePost := r.PostWindow()
	if migrated && havePost {
		fmt.Fprintf(&b, "\nSteady-state mean latency on %s (pre: [0, %v) before extension; post: fault-free [%v, %v) after it):\n",
			r.Node, first.Round(time.Second), postFrom.Round(time.Second), postTo.Round(time.Second))
		for _, arm := range r.Arms() {
			pre := arm.Obs.Range(0, first)
			post := arm.Obs.Range(postFrom, postTo)
			fmt.Fprintf(&b, "  %-10s pre=%sms post=%sms\n", arm.Label, ms(pre.Mean()), ms(post.Mean()))
		}
	} else {
		fmt.Fprintln(&b, "\n(controller never migrated; no steady-state comparison)")
	}
	return b.String()
}
