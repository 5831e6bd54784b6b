package experiment

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// scoredNode is the client node a faulted run scores: the clients
// collocated with the first edge, whose uplink the canonical outage cuts.
const scoredNode = simnet.NodeClientsEdge1

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

// Observed is what the scored client node saw in a run with a fault
// schedule armed.
type Observed struct {
	// Pages are its requests inside the schedule's scored window, per page,
	// sorted by (pattern, page).
	Pages []PageAvail
	// Requests are all of its requests, warm-up included, in completion
	// order.
	Requests []Request
}

// Request is one request of the scored node: when it completed, its
// response time, and whether it failed.
type Request struct {
	At, RT time.Duration
	Failed bool
}

// Range sums the requests that completed in [from, to), the mean over the
// successful ones.
func (o *Observed) Range(from, to time.Duration) PageAvail {
	var out PageAvail
	for _, r := range o.Requests {
		switch {
		case r.At < from || r.At >= to:
		case r.Failed:
			out.Fail++
		default:
			out.OK++
			out.MeanOK += r.RT
		}
	}
	if out.OK > 0 {
		out.MeanOK /= time.Duration(out.OK)
	}
	return out
}

// split sums the pages into the browse pattern's requests and the other
// patterns' (the writes).
func (o *Observed) split(browse string) (b, w PageAvail) {
	for _, p := range o.Pages {
		sum := &w
		if p.Pattern == browse {
			sum = &b
		}
		sum.OK += p.OK
		sum.Fail += p.Fail
	}
	return b, w
}

// observer accumulates a faulted run's Observed. Client processes run one at
// a time in the discrete-event engine, so plain fields suffice.
type observer struct {
	window   [2]time.Duration
	pages    map[workload.SeriesKey]*PageAvail
	requests []Request
}

func newObserver(window [2]time.Duration) *observer {
	return &observer{window: window, pages: make(map[workload.SeriesKey]*PageAvail)}
}

func (o *observer) observe(now time.Duration, client workload.Client, key workload.SeriesKey, rt time.Duration, err error) {
	if client.Node != scoredNode {
		return
	}
	o.requests = append(o.requests, Request{At: now, RT: rt, Failed: err != nil})
	if now < o.window[0] || now >= o.window[1] {
		return
	}
	p := o.pages[key]
	if p == nil {
		p = &PageAvail{Pattern: key.Pattern, Page: key.Page}
		o.pages[key] = p
	}
	if err != nil {
		p.Fail++
		return
	}
	p.OK++
	p.MeanOK += rt // a sum until result divides it
}

func (o *observer) result() *Observed {
	out := &Observed{Requests: o.requests}
	for _, p := range o.pages {
		if p.OK > 0 {
			p.MeanOK /= time.Duration(p.OK)
		}
		out.Pages = append(out.Pages, *p)
	}
	slices.SortFunc(out.Pages, func(a, b PageAvail) int {
		return cmp.Or(cmp.Compare(a.Pattern, b.Pattern), cmp.Compare(a.Page, b.Page))
	})
	return out
}

// FormatAvailability renders the availability table of faulted runs:
// per-configuration success rates and mean response times for the
// partitioned edge's clients during the outage window, one column per page
// (Table 6 layout, availability view).
func FormatAvailability(results []*Result) string {
	if len(results) == 0 {
		return "(no results)\n"
	}
	var b strings.Builder
	w := results[0].Spec.window()
	fmt.Fprintf(&b, "Availability on %s during the outage window [%v, %v].\n",
		scoredNode, w[0].Round(time.Second), w[1].Round(time.Second))
	fmt.Fprintln(&b, "Per page: success% (mean ms of successful requests).")

	// Column set: union of pages across configurations, in the first
	// result's order (they coincide across configs in practice).
	type col struct{ Pattern, Page string }
	var cols []col
	seen := make(map[col]bool)
	for _, r := range results {
		for _, p := range r.Observed.Pages {
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
		fmt.Fprintf(&b, "%-22s", r.Spec.Policy.Title())
		for _, c := range cols {
			cell := "-"
			for _, p := range r.Observed.Pages {
				if p.Pattern == c.Pattern && p.Page == c.Page {
					cell = fmt.Sprintf("%3.0f%%(%s)", 100*p.SuccessRate(), ms(p.MeanOK))
					break
				}
			}
			fmt.Fprintf(&b, " %11s", cell)
		}
		browse, write := r.Observed.split(apps[r.Spec.App].patterns[0])
		fmt.Fprintf(&b, " %7.1f%% %7.1f%%\n", 100*browse.SuccessRate(), 100*write.SuccessRate())
	}
	return b.String()
}
