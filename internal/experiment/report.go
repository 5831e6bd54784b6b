package experiment

import (
	"fmt"
	"strings"
	"time"
)

// ms renders a duration as integer milliseconds, like the paper's tables.
func ms(d time.Duration) string {
	return fmt.Sprintf("%d", d.Round(time.Millisecond)/time.Millisecond)
}

// shortPage abbreviates page names roughly like the paper's column headers.
var shortPage = map[string]string{
	"Main": "Main", "Category": "Categ", "Product": "Prod", "Item": "Item",
	"Search": "Search", "Signin": "S/in", "VerifySignin": "Verif",
	"Cart": "Cart", "Checkout": "Ch/out", "PlaceOrder": "Pl.Or.",
	"Billing": "Bill", "Commit": "Commit", "Signout": "S/out",
	"Browse": "Browse", "AllCategories": "AllCat", "AllRegions": "AllReg",
	"Region": "Region", "CategoryRegion": "Ct&Rg", "Bids": "Bids",
	"UserInfo": "UsrInf", "PutBidAuth": "PBAuth", "PutBidForm": "PBForm",
	"StoreBid": "StBid", "PutCommentAuth": "PCAuth", "PutCommentForm": "PCForm",
	"StoreComment": "StComm",
}

// locality names a client group's locality as the tables do.
func locality(local bool) string {
	if local {
		return "Local"
	}
	return "Remote"
}

func short(page string) string {
	if s, ok := shortPage[page]; ok {
		return s
	}
	return page
}

// FormatTable renders a full table run (Table 6 or Table 7): one
// Local/Remote row pair per configuration, one column per page.
func FormatTable(results []*Result) string {
	title := "Table 6. Average response times (ms) for five Pet Store configurations."
	if len(results) > 0 && results[0].Spec.App == RUBiS {
		title = "Table 7. Average response times (ms) for five RUBiS configurations."
	}
	return formatCells(title, results, true, func(c PageCell) (time.Duration, time.Duration) { return c.Local, c.Remote })
}

// FormatTableP95 renders the same table layout with 95th-percentile values
// instead of means: the tail-latency view the paper does not print but a
// deployer would want.
func FormatTableP95(results []*Result) string {
	title := "Pet Store 95th-percentile response times (ms), five configurations."
	if len(results) > 0 && results[0].Spec.App == RUBiS {
		title = "RUBiS 95th-percentile response times (ms), five configurations."
	}
	return formatCells(title, results, false, func(c PageCell) (time.Duration, time.Duration) { return c.LocalP95, c.RemoteP95 })
}

// formatCells renders the table layout under title: a page header row, with
// patternRow a row naming each pattern over its first page, then the local
// and remote values of each configuration's cells.
func formatCells(title string, results []*Result, patternRow bool, value func(PageCell) (local, remote time.Duration)) string {
	if len(results) == 0 {
		return "(no results)\n"
	}
	var b strings.Builder
	fmt.Fprintln(&b, title)
	cols := results[0].Cells
	fmt.Fprintf(&b, "%-22s %-6s", "Configuration", "Client")
	for _, c := range cols {
		fmt.Fprintf(&b, " %6s", short(c.Page))
	}
	fmt.Fprintln(&b)
	if patternRow {
		fmt.Fprintf(&b, "%-22s %-6s", "", "")
		prevPattern := ""
		for _, c := range cols {
			label := ""
			if c.Pattern != prevPattern {
				label = c.Pattern
				prevPattern = c.Pattern
			}
			fmt.Fprintf(&b, " %6s", label)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintln(&b, strings.Repeat("-", 30+7*len(cols)))
	for _, r := range results {
		local, remote := fmt.Sprintf("%-22s %-6s", r.Spec.Policy.Title(), "Local"), fmt.Sprintf("%-22s %-6s", "", "Remote")
		for _, c := range r.Cells {
			l, rm := value(c)
			local += fmt.Sprintf(" %6s", ms(l))
			remote += fmt.Sprintf(" %6s", ms(rm))
		}
		fmt.Fprintln(&b, local)
		fmt.Fprintln(&b, remote)
	}
	return b.String()
}

// FormatFigure renders Figure 7/8 as an ASCII bar chart: session average
// response times per configuration, grouped by (locality, pattern).
func FormatFigure(results []*Result) string {
	if len(results) == 0 {
		return "(no results)\n"
	}
	var b strings.Builder
	app := results[0].Spec.App
	title := "Figure 7. Java Pet Store session average response times."
	if app == RUBiS {
		title = "Figure 8. RUBiS session average response times."
	}
	fmt.Fprintln(&b, title)

	patterns := apps[app].patterns
	var maxMean time.Duration
	for _, r := range results {
		for _, pat := range patterns {
			maxMean = max(maxMean, r.SessionMeans[pat][true], r.SessionMeans[pat][false])
		}
	}
	if maxMean == 0 {
		maxMean = time.Millisecond
	}
	const width = 48
	for _, local := range []bool{true, false} {
		for _, pat := range patterns {
			fmt.Fprintf(&b, "\n%s %s\n", locality(local), pat)
			for _, r := range results {
				mean := r.SessionMeans[pat][local]
				n := int(int64(width) * int64(mean) / int64(maxMean))
				fmt.Fprintf(&b, "  %-22s %6s ms |%s\n", r.Spec.Policy.Title(), ms(mean), strings.Repeat("#", n))
			}
		}
	}
	return b.String()
}

// FormatDiagnostics renders per-run counters useful when validating a run.
func FormatDiagnostics(results []*Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %9s %7s %9s %8s %8s %8s %8s\n",
		"Configuration", "samples", "errors", "rmiCalls", "mainCPU", "edgeCPU", "jmsPub", "jmsDel")
	for _, r := range results {
		m := r.Metrics
		fmt.Fprintf(&b, "%-22s %9d %7d %9d %7.1f%% %7.1f%% %8d %8d\n",
			r.Spec.Policy.Title(), r.Samples, r.Errors, m.Counter("rmi_remote_calls_total"),
			100*r.MainCPUUtil, 100*r.EdgeCPUUtil, m.Counter("jms_published_total"), m.Counter("jms_delivered_total"))
	}
	return b.String()
}
