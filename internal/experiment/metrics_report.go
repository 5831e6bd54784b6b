package experiment

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"
)

// FormatMetricsComparison renders one row per registry instrument with a
// column per configuration, so the effect of each design rule shows up as a
// counter moving between columns (e.g. sqldb_statements_total collapsing
// once query caching is on). Labeled children (name{label="v"}) are omitted
// to keep the table one row per substrate signal; histograms appear as their
// mean in milliseconds.
func FormatMetricsComparison(results []*Result) string {
	if len(results) == 0 {
		return "(no results)\n"
	}
	// One row per unlabeled instrument, one cell per result ("-" where the
	// run has no such instrument).
	rows := make(map[string][]string)
	set := func(name string, i int, v string) {
		if strings.ContainsRune(name, '{') {
			return
		}
		if rows[name] == nil {
			rows[name] = slices.Repeat([]string{"-"}, len(results))
		}
		rows[name][i] = v
	}
	for i, res := range results {
		if res.Metrics == nil {
			continue
		}
		for _, c := range res.Metrics.Counters {
			set(c.Name, i, fmt.Sprintf("%d", c.Value))
		}
		for _, g := range res.Metrics.Gauges {
			set(g.Name, i, fmt.Sprintf("%d", g.Value))
		}
		for _, h := range res.Metrics.Histograms {
			if h.Count > 0 {
				set(h.Name+" (mean ms)", i, ms(time.Duration(h.SumNs/h.Count)))
			}
		}
	}
	names := slices.Sorted(maps.Keys(rows))
	nameWidth := len("Metric")
	for _, n := range names {
		nameWidth = max(nameWidth, len(n))
	}
	colWidth := 12
	for _, res := range results {
		colWidth = max(colWidth, len(res.Spec.Policy.String()))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", nameWidth, "Metric")
	for _, res := range results {
		fmt.Fprintf(&b, " %*s", colWidth, res.Spec.Policy.String())
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, strings.Repeat("-", nameWidth+(colWidth+1)*len(results)))
	for _, n := range names {
		fmt.Fprintf(&b, "%-*s", nameWidth, n)
		for _, v := range rows[n] {
			fmt.Fprintf(&b, " %*s", colWidth, v)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
