package experiment

// Critical-path blame reporting: the mechanical version of the paper's
// Section 5 explanations. For every configuration the tracer decomposed each
// sampled page view's latency into WAN wait, service time, queueing and
// retry/backoff; this file renders those aggregates as tables —
// per-(pattern, locality) summary rows in FormatBlame, and the per-page
// detail of one configuration in FormatBlamePages.

import (
	"fmt"
	"strings"
	"time"

	"wadeploy/internal/trace"
)

// blameRow is one aggregated (pattern, locality) line of the blame table.
type blameRow struct {
	pattern string
	local   bool
	views   int64
	total   time.Duration
	byCause [4]time.Duration
	links   map[string]time.Duration
}

// blameRows folds a report's per-page aggregates into (pattern, locality)
// rows, ordered pattern ascending with Local before Remote (the table-6 row
// order).
func blameRows(rep *TraceReport) []*blameRow {
	index := make(map[string]*blameRow)
	var rows []*blameRow
	for _, e := range rep.Blame.Pages() {
		id := e.Key.Pattern + "|" + map[bool]string{true: "l", false: "r"}[e.Key.Local]
		row := index[id]
		if row == nil {
			row = &blameRow{pattern: e.Key.Pattern, local: e.Key.Local, links: make(map[string]time.Duration)}
			index[id] = row
			rows = append(rows, row)
		}
		row.views += e.Agg.Count
		row.total += e.Agg.Total
		for c := 0; c < len(row.byCause); c++ {
			row.byCause[c] += e.Agg.ByCause[c]
		}
		for link, d := range e.Agg.Links {
			row.links[link] += d
		}
	}
	// Pages() iterates pattern-ascending with remote first; re-order each
	// pattern's pair to Local before Remote.
	for i := 1; i < len(rows); i++ {
		if rows[i].pattern == rows[i-1].pattern && rows[i].local && !rows[i-1].local {
			rows[i], rows[i-1] = rows[i-1], rows[i]
		}
	}
	return rows
}

// topLink returns the network edge carrying the most critical-path time.
func topLink(links map[string]time.Duration) string {
	var best string
	var bestD time.Duration
	for link, d := range links {
		if d > bestD || (d == bestD && (best == "" || link < best)) {
			best, bestD = link, d
		}
	}
	if best == "" {
		return "-"
	}
	return best
}

// shareColumns renders the service, WAN, queueing and retry shares of total
// as four percentage columns.
func shareColumns(by [4]time.Duration, total time.Duration) string {
	return fmt.Sprintf("%5s %5s %5s %5s", pct(by[trace.CauseService], total), pct(by[trace.CauseWAN], total),
		pct(by[trace.CauseQueue], total), pct(by[trace.CauseRetry], total))
}

// pct renders part as an integer percentage of whole.
func pct(part, whole time.Duration) string {
	if whole <= 0 {
		return "0"
	}
	return fmt.Sprintf("%d", (100*part+whole/2)/whole)
}

// FormatBlame renders the per-configuration critical-path blame table: for
// each (pattern, locality) class, mean sampled page latency and its split
// across the four causes, plus the busiest network edge.
func FormatBlame(results []*Result) string {
	if len(results) == 0 {
		return "(no results)\n"
	}
	var b strings.Builder
	title := "Critical-path blame per sampled page view: Pet Store configurations."
	if results[0].Spec.App == RUBiS {
		title = "Critical-path blame per sampled page view: RUBiS configurations."
	}
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "%-22s %-6s %-8s %7s %6s %5s %5s %5s %5s  %s\n",
		"Configuration", "Client", "Pattern", "views", "ms", "svc%", "wan%", "que%", "rty%", "top link")
	fmt.Fprintln(&b, strings.Repeat("-", 96))
	for _, r := range results {
		if r.Trace == nil {
			continue
		}
		name := r.Spec.Policy.Title()
		for _, row := range blameRows(r.Trace) {
			var mean time.Duration
			if row.views > 0 {
				mean = row.total / time.Duration(row.views)
			}
			fmt.Fprintf(&b, "%-22s %-6s %-8s %7d %6s %s  %s\n", name, locality(row.local), row.pattern,
				row.views, ms(mean), shareColumns(row.byCause, row.total), topLink(row.links))
			name = ""
		}
	}
	return b.String()
}

// FormatBlamePages renders one configuration's per-page blame detail.
func FormatBlamePages(r *Result) string {
	if r.Trace == nil {
		return "(no trace data)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Per-page critical-path blame: %s/%s.\n", r.Spec.App, r.Spec.Policy.Title())
	fmt.Fprintf(&b, "%-8s %-14s %-6s %7s %6s %5s %5s %5s %5s %8s  %s\n",
		"Pattern", "Page", "Client", "views", "ms", "svc%", "wan%", "que%", "rty%", "async", "top link")
	fmt.Fprintln(&b, strings.Repeat("-", 104))
	for _, e := range r.Trace.Blame.Pages() {
		var mean, asyncMean time.Duration
		if e.Agg.Count > 0 {
			mean = e.Agg.Total / time.Duration(e.Agg.Count)
			asyncMean = e.Agg.Async / time.Duration(e.Agg.Count)
		}
		fmt.Fprintf(&b, "%-8s %-14s %-6s %7d %6s %s %8s  %s\n", e.Key.Pattern, e.Key.Page, locality(e.Key.Local),
			e.Agg.Count, ms(mean), shareColumns(e.Agg.ByCause, e.Agg.Total), ms(asyncMean)+"ms", topLink(e.Agg.Links))
	}
	return b.String()
}
