package experiment

import (
	"fmt"
	"strings"
	"time"

	"wadeploy/internal/metrics"
)

// sessionMeans returns a run's browser and writer session means: local
// browse, remote browse, local write, remote write.
func sessionMeans(r *Result) [4]time.Duration {
	patterns := apps[r.Spec.App].patterns
	browser, writer := r.SessionMeans[patterns[0]], r.SessionMeans[patterns[1]]
	return [4]time.Duration{browser[true], browser[false], writer[true], writer[false]}
}

// FormatSweep renders a sweep as an aligned table: x of each run's spec (the
// swept parameter, e.g. WAN one-way ms or offered req/s) against its session
// means.
func FormatSweep(xLabel string, x func(Spec) float64, results []*Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %12s\n",
		xLabel, "loc-browse", "rem-browse", "loc-write", "rem-write")
	for _, r := range results {
		m := sessionMeans(r)
		fmt.Fprintf(&b, "%-14.1f %12s %12s %12s %12s\n", x(r.Spec), ms(m[0]), ms(m[1]), ms(m[2]), ms(m[3]))
	}
	return b.String()
}

// wanBytes sums the per-link byte counters over links with a hub endpoint —
// in a hierarchy every backbone (main<->hub) and metro (hub<->edge) link, and
// nothing else, touches a hub.
func wanBytes(s *metrics.Snapshot) int64 {
	const prefix = `simnet_link_bytes_total{link="`
	var total int64
	for _, c := range s.Counters {
		if !strings.HasPrefix(c.Name, prefix) {
			continue
		}
		link := strings.TrimSuffix(strings.TrimPrefix(c.Name, prefix), `"}`)
		if strings.Contains(link, "hub") {
			total += c.Value
		}
	}
	return total
}

// FormatTopo renders a topology sweep (runs of one policy over hierarchies
// of growing edge count) as an aligned table: per-pattern session latency,
// WAN traffic over hub links, messages, replica footprint and pushes per
// edge count.
func FormatTopo(results []*Result) string {
	if len(results) == 0 {
		return "(no results)\n"
	}
	var b strings.Builder
	part := "full replication"
	if p := results[0].Spec.Policy.Partition; p != nil {
		part = fmt.Sprintf("%d hash partitions", p.Partitions)
	}
	fmt.Fprintf(&b, "topology scaling: %s, %s\n", results[0].Spec.App, part)
	fmt.Fprintf(&b, "%-6s %-5s %12s %12s %12s %12s %10s %10s %10s %8s %8s\n",
		"edges", "hubs", "loc-browse", "rem-browse", "loc-write", "rem-write", "wan-MB", "msgs", "replicas", "pushes", "errors")
	for _, r := range results {
		m := sessionMeans(r)
		fmt.Fprintf(&b, "%-6d %-5d %12s %12s %12s %12s %10.2f %10d %10d %8d %8d\n",
			r.Spec.Topology.Edges, r.Hubs, ms(m[0]), ms(m[1]), ms(m[2]), ms(m[3]),
			float64(wanBytes(r.Metrics))/(1024*1024), r.Metrics.Counter("simnet_messages_total"),
			r.ReplicaEntries, r.Metrics.Counter("container_replica_pushes_total"), r.Errors)
	}
	return b.String()
}
