// Partition-aware Pet Store deployment: Item and Inventory replicas hold
// key-space slices per edge instead of full copies, and query caches are
// scoped to the local slice.
package petstore

import (
	"fmt"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
)

// TopoOptions parameterizes a partition-aware deployment.
type TopoOptions struct {
	// Partition shards the Item and Inventory key space. Nil keeps full
	// replication.
	Partition *container.PartitionSpec
	// Assignments maps edge node -> owned partitions. Nil with a non-nil
	// Partition derives a round-robin assignment over the edges.
	Assignments core.PartitionAssignment
}

// DeployTopo installs Pet Store on an N-edge deployment with optional entity
// partitioning. The deployment usually comes from
// core.NewHierarchicalDeployment, but any deployment works — partitioning is
// orthogonal to topology.
func DeployTopo(d *core.Deployment, cfg core.ConfigID, topo TopoOptions) (*App, error) {
	if err := topo.Partition.Validate(); err != nil {
		return nil, fmt.Errorf("petstore: %w", err)
	}
	asg := topo.Assignments
	if topo.Partition != nil && asg == nil {
		edges := make([]string, 0, len(d.Edges))
		for _, e := range d.Edges {
			edges = append(edges, e.Name())
		}
		asg = core.RoundRobinAssignment(topo.Partition, edges)
	}
	return deploy(d, cfg, cfg, false, topo.Partition, asg)
}

// ownsQueryParam reports whether edge's partition slice covers a cached
// query's parameter key. Always true without partitioning; with it, each
// edge caches only query results whose key falls in its slice — the
// partition-scoped query cache — and delegates the rest to the central
// Catalog.
func (a *App) ownsQueryParam(edge *container.Server, param string) bool {
	if a.partSpec == nil {
		return true
	}
	p := a.partSpec.PartitionForKey(param)
	for _, owned := range a.partAssign[edge.Name()] {
		if owned == p {
			return true
		}
	}
	return false
}
