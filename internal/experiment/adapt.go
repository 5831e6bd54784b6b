package experiment

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/faults"
	"wadeploy/internal/trace"
)

// AdaptArms returns the online re-placement experiment's three arms under
// base's fault schedule (the canonical outage when it has none), which arms
// the resilience machinery on each:
//
//   - static: the remote-façade deployment, controller off — what the
//     adaptive run would be stuck with if it never re-placed;
//   - resilient: base.Policy, controller off — the static-resilience
//     baseline the availability comparison is against;
//   - adaptive: the remote-façade deployment with base.Policy's replica
//     bundle wired onto no server and the controller on (base.Adaptive's
//     options); the controller observes the traced page mix, extends the
//     bundle to the edges by live migration, suspends pushes across the
//     partition and resynchronizes the stale edge after it heals. Each
//     cut-over fills the edge's query cache from the main server's views,
//     so RUBiS's push-fed caches start warm. A policy with no replica
//     bundle leaves it nothing to extend, and the run fails naming the
//     policy.
func AdaptArms(base Spec) []Spec {
	if base.Schedule == nil {
		base.Schedule = faults.Canonical(base.Warmup, base.Duration)
	}
	adaptive := base.Adaptive
	if adaptive == nil {
		adaptive = &controller.Options{}
	}
	base.Adaptive = nil
	static, resilient, ad := base, base, base
	static.Label, static.Policy = "static", core.RemoteFacade
	resilient.Label = "resilient"
	ad.Label, ad.Adaptive = "adaptive", adaptive
	if ad.Trace == nil {
		// The controller re-plans on the flight recorder's observed page
		// mix; tracing adds no delays and draws no randomness.
		ad.Trace = &trace.Options{SampleEvery: 4}
	}
	return []Spec{static, resilient, ad}
}

// adaptLag is the controller's reaction to one fault onset.
type adaptLag struct {
	onset     time.Duration
	detected  time.Duration // first fault-detected event at/after the onset (0 = none)
	recovered time.Duration // first resync completing after the onset (0 = none)
}

// lags measures the adaptive run r's lag against every fault onset of its
// schedule: how long after each onset the controller first observed a lost
// path, and when the post-fault resynchronization completed.
func lags(r *Result) []adaptLag {
	var out []adaptLag
	if r.Adapt == nil {
		return out
	}
	for _, onset := range r.Spec.Schedule.Onsets() {
		lag := adaptLag{onset: onset}
		for _, ev := range r.Adapt.Events {
			if ev.At < onset {
				continue
			}
			if lag.detected == 0 && ev.Kind == controller.EventFaultDetected {
				lag.detected = ev.At
			}
			if lag.recovered == 0 && ev.Kind == controller.EventResynced {
				lag.recovered = ev.At
			}
		}
		out = append(out, lag)
	}
	return out
}

// migrationSpan returns the virtual-time span of the adaptive run r's
// extension program: the start of the first migration and the end of the
// last extension migration (resyncs excluded). ok is false if the
// controller never migrated.
func migrationSpan(r *Result) (first, last time.Duration, ok bool) {
	if r.Adapt == nil {
		return 0, 0, false
	}
	for _, m := range r.Adapt.Migrations {
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

// postWindow returns the longest fault-free stretch of virtual time after
// the adaptive run r's extension program completed — the window the
// steady-state post-migration latency comparison scores. ok is false when
// the controller never migrated or no fault-free time remained.
func postWindow(r *Result) (from, to time.Duration, ok bool) {
	_, last, migrated := migrationSpan(r)
	horizon := r.Spec.Warmup + r.Spec.Duration
	if !migrated || last >= horizon {
		return 0, 0, false
	}
	// Walk the schedule's fault-covered intervals in start order and keep
	// the widest gap after the last migration.
	events := slices.Clone(r.Spec.Schedule.Events)
	slices.SortFunc(events, func(a, b faults.Event) int { return cmp.Compare(a.At, b.At) })
	cursor := last
	for _, e := range events {
		if e.At > cursor && e.At-cursor > to-from {
			from, to = cursor, e.At
		}
		cursor = max(cursor, e.At+e.Duration)
	}
	if cursor < horizon && horizon-cursor > to-from {
		from, to = cursor, horizon
	}
	return from, to, to > from
}

// FormatAdapt renders the runs of AdaptArms: the controller's decision
// timeline, the adaptation lag against each fault onset, availability on
// the partitioned edge during the outage window across the arms, and the
// steady-state latency before and after the extension program.
func FormatAdapt(arms []*Result) string {
	var b strings.Builder
	r := arms[len(arms)-1] // the adaptive arm
	ad := r.Adapt

	fmt.Fprintf(&b, "Online re-placement under schedule %q (target %s).\n\n",
		r.Spec.Schedule.Name, r.Spec.Policy.Title())

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
	for _, lag := range lags(r) {
		det, rec := "-", "-"
		if lag.detected > 0 {
			det = fmt.Sprint((lag.detected - lag.onset).Round(time.Second))
		}
		if lag.recovered > 0 {
			rec = fmt.Sprint((lag.recovered - lag.onset).Round(time.Second))
		}
		fmt.Fprintf(&b, "  onset %8s: detected +%s, resynced +%s\n",
			lag.onset.Round(time.Second), det, rec)
	}

	window := r.Spec.window()
	fmt.Fprintf(&b, "\nAvailability on %s during the outage window [%v, %v]:\n",
		scoredNode, window[0].Round(time.Second), window[1].Round(time.Second))
	for _, arm := range arms {
		w := arm.Observed.Range(window[0], window[1])
		fmt.Fprintf(&b, "  %-10s (%-22s) %6.1f%%  ok=%-6d fail=%-6d mean-ok=%s\n",
			arm.Spec.Label, arm.Spec.Policy.Title(), 100*w.SuccessRate(), w.OK, w.Fail, ms(w.MeanOK)+"ms")
	}

	// Steady-state latency: the same two stretches scored for every arm —
	// before the adaptive arm's first migration, and the longest
	// fault-free window after its extension program completed.
	first, _, migrated := migrationSpan(r)
	postFrom, postTo, havePost := postWindow(r)
	if migrated && havePost {
		fmt.Fprintf(&b, "\nSteady-state mean latency on %s (pre: [0, %v) before extension; post: fault-free [%v, %v) after it):\n",
			scoredNode, first.Round(time.Second), postFrom.Round(time.Second), postTo.Round(time.Second))
		for _, arm := range arms {
			pre := arm.Observed.Range(0, first)
			post := arm.Observed.Range(postFrom, postTo)
			fmt.Fprintf(&b, "  %-10s pre=%sms post=%sms\n", arm.Spec.Label, ms(pre.MeanOK), ms(post.MeanOK))
		}
	} else {
		fmt.Fprintln(&b, "\n(controller never migrated; no steady-state comparison)")
	}
	return b.String()
}
