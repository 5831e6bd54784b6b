package experiment

import (
	"fmt"
	"sort"
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
	type row struct {
		name   string
		values map[int]string // result index -> cell
	}
	rows := make(map[string]*row)
	get := func(name string) *row {
		r, ok := rows[name]
		if !ok {
			r = &row{name: name, values: make(map[int]string)}
			rows[name] = r
		}
		return r
	}
	for i, res := range results {
		if res.Metrics == nil {
			continue
		}
		for _, c := range res.Metrics.Counters {
			if strings.ContainsRune(c.Name, '{') {
				continue
			}
			get(c.Name).values[i] = fmt.Sprintf("%d", c.Value)
		}
		for _, g := range res.Metrics.Gauges {
			if strings.ContainsRune(g.Name, '{') {
				continue
			}
			get(g.Name).values[i] = fmt.Sprintf("%d", g.Value)
		}
		for _, h := range res.Metrics.Histograms {
			if strings.ContainsRune(h.Name, '{') || h.Count == 0 {
				continue
			}
			mean := time.Duration(h.SumNs / h.Count)
			get(h.Name + " (mean ms)").values[i] = ms(mean)
		}
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)

	nameWidth := len("Metric")
	for _, n := range names {
		if len(n) > nameWidth {
			nameWidth = len(n)
		}
	}
	colWidth := 12
	for _, res := range results {
		if n := len(res.Config.String()); n > colWidth {
			colWidth = n
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", nameWidth, "Metric")
	for _, res := range results {
		fmt.Fprintf(&b, " %*s", colWidth, res.Config.String())
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, strings.Repeat("-", nameWidth+(colWidth+1)*len(results)))
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(&b, "%-*s", nameWidth, n)
		for i := range results {
			v, ok := r.values[i]
			if !ok {
				v = "-"
			}
			fmt.Fprintf(&b, " %*s", colWidth, v)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
