package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/faults"
	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// PageAvail is one page's availability figures on the partitioned edge
// during the scored outage window: request counts by outcome and the mean
// response time of the successful requests.
type PageAvail struct {
	Pattern string
	Page    string
	OK      int
	Fail    int
	MeanOK  time.Duration
}

// SuccessRate returns OK/(OK+Fail), or 1 when the page saw no traffic.
func (p PageAvail) SuccessRate() float64 {
	if p.OK+p.Fail == 0 {
		return 1
	}
	return float64(p.OK) / float64(p.OK+p.Fail)
}

// AvailabilityResult is one configuration's row of the availability table:
// what the clients collocated with the partitioned edge server experienced
// while their WAN uplink was down.
type AvailabilityResult struct {
	App    AppID
	Config core.Policy

	// Node is the scored client node; Window is the scored interval of
	// virtual time (both taken from the fault schedule).
	Node   string
	Window [2]time.Duration

	// Pages is sorted by (pattern, page) for deterministic output.
	Pages []PageAvail

	// Aggregates over Pages, split by usage pattern: the browse pattern
	// is the first of the app's patterns (Browser), writes are the rest
	// (Buyer/Bidder).
	BrowseOK, BrowseFail int
	WriteOK, WriteFail   int

	// Full is the underlying table run result (response times, metrics
	// snapshot) for the same configuration.
	Full *Result
}

// BrowseSuccessRate returns the fraction of browse-pattern requests that
// succeeded inside the window (1 when there was no traffic).
func (r *AvailabilityResult) BrowseSuccessRate() float64 {
	if r.BrowseOK+r.BrowseFail == 0 {
		return 1
	}
	return float64(r.BrowseOK) / float64(r.BrowseOK+r.BrowseFail)
}

// WriteSuccessRate returns the fraction of write-pattern requests that
// succeeded inside the window (1 when there was no traffic).
func (r *AvailabilityResult) WriteSuccessRate() float64 {
	if r.WriteOK+r.WriteFail == 0 {
		return 1
	}
	return float64(r.WriteOK) / float64(r.WriteOK+r.WriteFail)
}

// availAccum accumulates observer callbacks for one run. Client processes
// run one at a time in the discrete-event engine, so plain fields suffice.
type availAccum struct {
	node   string
	window [2]time.Duration
	ok     map[workload.SeriesKey]int
	fail   map[workload.SeriesKey]int
	sumOK  map[workload.SeriesKey]time.Duration
}

func newAvailAccum(node string, window [2]time.Duration) *availAccum {
	return &availAccum{
		node:   node,
		window: window,
		ok:     make(map[workload.SeriesKey]int),
		fail:   make(map[workload.SeriesKey]int),
		sumOK:  make(map[workload.SeriesKey]time.Duration),
	}
}

func (a *availAccum) observe(now time.Duration, client workload.Client, key workload.SeriesKey, rt time.Duration, err error) {
	if client.Node != a.node || now < a.window[0] || now >= a.window[1] {
		return
	}
	if err != nil {
		a.fail[key]++
		return
	}
	a.ok[key]++
	a.sumOK[key] += rt
}

func (a *availAccum) pages() []PageAvail {
	keys := make([]workload.SeriesKey, 0, len(a.ok)+len(a.fail))
	seen := make(map[workload.SeriesKey]bool)
	for k := range a.ok {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range a.fail {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Pattern != keys[j].Pattern {
			return keys[i].Pattern < keys[j].Pattern
		}
		return keys[i].Page < keys[j].Page
	})
	out := make([]PageAvail, 0, len(keys))
	for _, k := range keys {
		p := PageAvail{Pattern: k.Pattern, Page: k.Page, OK: a.ok[k], Fail: a.fail[k]}
		if p.OK > 0 {
			p.MeanOK = a.sumOK[k] / time.Duration(p.OK)
		}
		out = append(out, p)
	}
	return out
}

// RunAvailability runs the availability experiment: all five configurations
// under a WAN fault schedule (the canonical outage when opts.Schedule is
// nil), with the resilience machinery enabled, scoring the per-page success rates and response
// times that the clients on the partitioned edge see inside the schedule's
// outage window. Runs are deterministic: the same seed yields byte-identical
// results at any Parallelism.
func RunAvailability(app AppID, opts RunOptions) ([]*AvailabilityResult, error) {
	if opts.Schedule == nil {
		opts.Schedule = faults.Canonical(opts.Warmup, opts.Duration)
	}
	opts.Resilience = true
	window := opts.Schedule.Window
	if window == [2]time.Duration{} {
		window = [2]time.Duration{opts.Warmup, opts.Warmup + opts.Duration}
	}
	node := simnet.NodeClientsEdge1

	def := apps[app]
	if def == nil {
		return nil, fmt.Errorf("experiment: unknown app %q", app)
	}
	browsePattern := def.patterns[0]

	out := make([]*AvailabilityResult, len(core.Configs))
	err := forEachParallel(opts.Parallelism, len(core.Configs), func(i int) error {
		acc := newAvailAccum(node, window)
		ropts := opts
		ropts.Observer = acc.observe
		full, err := Run(app, core.Configs[i], ropts)
		if err != nil {
			return err
		}
		ar := &AvailabilityResult{
			App:    app,
			Config: core.Configs[i],
			Node:   node,
			Window: window,
			Pages:  acc.pages(),
			Full:   full,
		}
		for _, p := range ar.Pages {
			if p.Pattern == browsePattern {
				ar.BrowseOK += p.OK
				ar.BrowseFail += p.Fail
			} else {
				ar.WriteOK += p.OK
				ar.WriteFail += p.Fail
			}
		}
		out[i] = ar
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatAvailability renders the availability table: per-configuration
// success rates and mean response times for the partitioned edge's clients
// during the outage window, one column per page (Table 6 layout, availability
// view).
func FormatAvailability(results []*AvailabilityResult) string {
	if len(results) == 0 {
		return "(no results)\n"
	}
	var b strings.Builder
	r0 := results[0]
	fmt.Fprintf(&b, "Availability on %s during the outage window [%v, %v].\n",
		r0.Node, r0.Window[0].Round(time.Second), r0.Window[1].Round(time.Second))
	fmt.Fprintln(&b, "Per page: success% (mean ms of successful requests).")

	// Column set: union of pages across configurations, in the first
	// result's order (they coincide across configs in practice).
	type col struct{ Pattern, Page string }
	var cols []col
	seen := make(map[col]bool)
	for _, r := range results {
		for _, p := range r.Pages {
			c := col{p.Pattern, p.Page}
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
	}
	fmt.Fprintf(&b, "%-22s", "Configuration")
	for _, c := range cols {
		fmt.Fprintf(&b, " %11s", short(c.Page))
	}
	fmt.Fprintf(&b, " %8s %8s\n", "browse%", "write%")
	fmt.Fprintln(&b, strings.Repeat("-", 22+12*len(cols)+18))
	for _, r := range results {
		fmt.Fprintf(&b, "%-22s", r.Config.Title())
		for _, c := range cols {
			cell := "-"
			for _, p := range r.Pages {
				if p.Pattern == c.Pattern && p.Page == c.Page {
					cell = fmt.Sprintf("%3.0f%%(%s)", 100*p.SuccessRate(), ms(p.MeanOK))
					break
				}
			}
			fmt.Fprintf(&b, " %11s", cell)
		}
		fmt.Fprintf(&b, " %7.1f%% %7.1f%%\n", 100*r.BrowseSuccessRate(), 100*r.WriteSuccessRate())
	}
	return b.String()
}
