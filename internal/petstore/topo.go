// Partition-aware Pet Store deployment: Item and Inventory replicas hold
// key-space slices per edge instead of full copies, and the edge Catalog's
// cached queries are scoped to the local Item slice (edgeCatalog).
package petstore

import (
	"wadeploy/internal/container"
	"wadeploy/internal/core"
)

// TopoOptions is the partition choice of DeployTopo.
type TopoOptions struct {
	// Partition shards the Item and Inventory key space. Nil keeps full
	// replication.
	Partition *container.PartitionSpec
}

// DeployTopo is Deploy with p.Partition set from topo: the name the
// benchmark deploys its partitioned hierarchy through.
func DeployTopo(d *core.Deployment, p core.Policy, topo TopoOptions) (*App, error) {
	p.Partition = topo.Partition
	return Deploy(d, p)
}
