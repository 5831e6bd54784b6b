// Partition-aware RUBiS deployment. RUBiS keeps it minimal: the Item replica
// (the hot, large table) shards per edge; User replicas and the query caches
// stay full, because edge authentication and the browse/search caches need
// global coverage.
package rubis

import (
	"fmt"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
)

// TopoOptions parameterizes a partition-aware RUBiS deployment.
type TopoOptions struct {
	// Partition shards the Item key space (item ids are decimal strings for
	// partitioning purposes, so HashPartition is the natural scheme). Nil
	// keeps full replication.
	Partition *container.PartitionSpec
	// Assignments maps edge node -> owned partitions; nil with a non-nil
	// Partition derives a round-robin assignment over the edges.
	Assignments core.PartitionAssignment
}

// DeployTopo installs RUBiS on an N-edge deployment with the Item replica
// optionally partitioned.
func DeployTopo(d *core.Deployment, cfg core.ConfigID, topo TopoOptions) (*App, error) {
	if err := topo.Partition.Validate(); err != nil {
		return nil, fmt.Errorf("rubis: %w", err)
	}
	asg := topo.Assignments
	if topo.Partition != nil && asg == nil {
		edges := make([]string, 0, len(d.Edges))
		for _, e := range d.Edges {
			edges = append(edges, e.Name())
		}
		asg = core.RoundRobinAssignment(topo.Partition, edges)
	}
	if err := InitSchema(d.DB); err != nil {
		return nil, err
	}
	a := &App{
		d:          d,
		cfg:        cfg,
		partSpec:   topo.Partition,
		partAssign: asg,
		bidSeq:     int64(NumItems * SeedBidsPerItem),
		commentSeq: int64(SeedComments),
		costs:      DefaultPageCosts(),
	}
	if err := a.deployEntities(); err != nil {
		return nil, err
	}
	if err := a.deployMainFacades(); err != nil {
		return nil, err
	}
	for _, srv := range a.activeServers() {
		a.registerPages(srv)
	}
	if cfg.AtLeast(core.StatefulCaching) {
		if err := a.wireReplicas(); err != nil {
			return nil, err
		}
		if err := a.deployEdgeFacades(); err != nil {
			return nil, err
		}
	}
	if err := a.Plan().Validate(); err != nil {
		return nil, fmt.Errorf("rubis: %w", err)
	}
	return a, nil
}
