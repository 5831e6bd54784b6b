package experiment

import (
	"fmt"
	"strings"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/metrics"
	"wadeploy/internal/simnet"
)

// TopoSweepOptions parameterizes a topology scaling sweep.
type TopoSweepOptions struct {
	RunOptions

	// Config is the policy under test; its Partition is set from
	// Partitions.
	Config core.Policy

	// Partitions > 0 shards the hot entities (Item/Inventory for Pet Store,
	// Item for RUBiS) into this many hash partitions spread round-robin over
	// the edges. 0 keeps the paper's full replication at every PoP.
	Partitions int

	// Hierarchy overrides per-point spec fields other than Edges (link
	// classes, hub count, redundancy). The zero value uses the defaults.
	Hierarchy simnet.HierarchySpec
}

// TopoPoint is one measurement of the edge-count scaling sweep.
type TopoPoint struct {
	Edges      int
	Hubs       int
	Partitions int

	// Session means by pattern and locality — the per-page latency rollup.
	LocalBrowser  time.Duration
	RemoteBrowser time.Duration
	LocalWriter   time.Duration
	RemoteWriter  time.Duration

	Samples int
	Errors  int

	// WANBytes is the traffic crossing backbone/metro links (every link with
	// a hub endpoint) during the run, both directions.
	WANBytes int64
	// Msgs is the total message count across the whole network.
	Msgs int64

	// ReplicaEntries is the total entity state cached across every edge
	// replica at the end of the run — the footprint partitioning exists to
	// shrink (slices, not full copies).
	ReplicaEntries int64
	// Pushes counts replica push deliveries (sync + async); partition-scoped
	// propagation sends each write to its owners only.
	Pushes int64
}

// TopoSweep runs one scaling curve: for each edge count, build an N-edge
// hierarchy, deploy the app partition-aware, offer the paper's total load
// spread over the N edge client groups, and measure latency and WAN traffic.
// Same seed, same options: byte-identical points at any Parallelism.
func TopoSweep(app AppID, edgeCounts []int, opts TopoSweepOptions) ([]TopoPoint, error) {
	cfg := opts.Config
	if opts.Partitions > 0 {
		cfg.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: opts.Partitions}
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	for _, n := range edgeCounts {
		if n < 1 {
			return nil, fmt.Errorf("experiment: topo sweep needs >= 1 edges, got %d", n)
		}
	}
	out := make([]TopoPoint, len(edgeCounts))
	err := forEachParallel(opts.Parallelism, len(edgeCounts), func(i int) error {
		spec := opts.Hierarchy
		spec.Edges = edgeCounts[i]
		r, tb, err := run(app, cfg, opts.RunOptions, spec, 1)
		if err != nil {
			return fmt.Errorf("topo sweep %d edges: %w", edgeCounts[i], err)
		}
		out[i] = topoPoint(tb, r, opts.Partitions)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// topoPoint reads one sweep point off a finished run and its testbed.
func topoPoint(tb *Testbed, r *Result, partitions int) TopoPoint {
	sp := point(r, 0)
	var entries int64
	if wiring := tb.inst.Wiring(); wiring != nil {
		for _, e := range tb.d.Edges {
			for _, ro := range wiring.Replicas[e.Name()] {
				entries += int64(ro.Cached())
			}
		}
	}
	return TopoPoint{
		Edges:          len(tb.d.Edges),
		Hubs:           len(tb.h.HubNames),
		Partitions:     partitions,
		LocalBrowser:   sp.LocalBrowser,
		RemoteBrowser:  sp.RemoteBrowser,
		LocalWriter:    sp.LocalWriter,
		RemoteWriter:   sp.RemoteWriter,
		Samples:        r.Samples,
		Errors:         r.Errors,
		WANBytes:       wanBytes(r.Metrics),
		Msgs:           r.Metrics.Counter("simnet_messages_total"),
		ReplicaEntries: entries,
		Pushes:         r.Metrics.Counter("container_replica_pushes_total"),
	}
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

// FormatTopo renders the scaling curve as an aligned table: per-pattern
// session latency plus WAN traffic per edge count.
func FormatTopo(app AppID, points []TopoPoint) string {
	var b strings.Builder
	part := "full replication"
	if len(points) > 0 && points[0].Partitions > 0 {
		part = fmt.Sprintf("%d hash partitions", points[0].Partitions)
	}
	fmt.Fprintf(&b, "topology scaling: %s, %s\n", app, part)
	fmt.Fprintf(&b, "%-6s %-5s %12s %12s %12s %12s %10s %10s %10s %8s %8s\n",
		"edges", "hubs", "loc-browse", "rem-browse", "loc-write", "rem-write", "wan-MB", "msgs", "replicas", "pushes", "errors")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-6d %-5d %12s %12s %12s %12s %10.2f %10d %10d %8d %8d\n",
			pt.Edges, pt.Hubs,
			ms(pt.LocalBrowser), ms(pt.RemoteBrowser), ms(pt.LocalWriter), ms(pt.RemoteWriter),
			float64(pt.WANBytes)/(1024*1024), pt.Msgs, pt.ReplicaEntries, pt.Pushes, pt.Errors)
	}
	return b.String()
}
