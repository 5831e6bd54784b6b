package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/experiment"
)

// parseEdgeCounts parses the -edges flag: a comma-separated list of edge
// counts, e.g. "2,8,32,128".
func parseEdgeCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-edges: bad edge count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-edges: no edge counts")
	}
	return out, nil
}

// topo runs the planet-scale topology sweep: for each edge count, an N-edge
// hierarchy with the paper's total offered load spread over the edges, with
// the hot entities hash-partitioned across the PoPs when -partitions > 0.
// The stdout table depends only on the seed, the sweep parameters and the
// durations — never on -parallel; wall clock goes to stderr.
func topo(app experiment.AppID, cfg core.Policy, edgesFlag string, partitions int, opts experiment.RunOptions) error {
	edgeCounts, err := parseEdgeCounts(edgesFlag)
	if err != nil {
		return err
	}
	if partitions < 0 {
		return fmt.Errorf("-partitions: must be >= 0, got %d", partitions)
	}
	topts := experiment.TopoSweepOptions{
		RunOptions: opts,
		Config:     cfg,
		Partitions: partitions,
	}
	start := time.Now()
	pts, err := experiment.TopoSweep(app, edgeCounts, topts)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Printf("Topology sweep: %s / %s, seed %d, %v warm-up + %v measured\n",
		app, cfg.Title(), opts.Seed, opts.Warmup, opts.Duration)
	fmt.Print(experiment.FormatTopo(app, pts))
	fmt.Fprintf(os.Stderr, "topo: wall %.2fs for %d points\n", wall.Seconds(), len(pts))
	return nil
}
