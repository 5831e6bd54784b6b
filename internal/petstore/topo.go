// Partition-aware Pet Store deployment: Item and Inventory replicas hold
// key-space slices per edge instead of full copies, and query caches are
// scoped to the local slice.
package petstore

import (
	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/sqldb"
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

// ownsQueryParam reports whether edge's partition slice covers a cached
// query's parameter key. Always true without partitioning; with it, each
// edge caches only query results whose key falls in its Item replica's slice
// — the partition-scoped query cache — and delegates the rest to the central
// Catalog.
func (a *App) ownsQueryParam(edge *container.Server, param string) bool {
	return a.wiring.OwnsKey(edge.Name(), BeanItem, sqldb.Str(param))
}
