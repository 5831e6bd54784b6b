package petstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/workload"
)

// edgeArgs draws the arguments of each declared edge method from the seed
// data. A method declared without a line here fails the test below.
var edgeArgs = map[[2]string]func(rng *rand.Rand) []sqldb.Value{
	{BeanCatalog, "getProductsOf"}: func(rng *rand.Rand) []sqldb.Value {
		return []sqldb.Value{sqldb.Str(CategoryID(rng.Intn(NumCategories)))}
	},
	{BeanCatalog, "getItemsOf"}: func(rng *rand.Rand) []sqldb.Value {
		return []sqldb.Value{sqldb.Str(ProductID(rng.Intn(NumCategories), rng.Intn(ProductsPerCategory)))}
	},
	{BeanCatalog, "getItem"}: func(rng *rand.Rand) []sqldb.Value {
		return []sqldb.Value{sqldb.Str(ItemID(rng.Intn(NumCategories), rng.Intn(ProductsPerCategory), rng.Intn(ItemsPerProduct)))}
	},
	{BeanCatalog, "search"}: func(rng *rand.Rand) []sqldb.Value {
		return []sqldb.Value{sqldb.Str(searchQs[rng.Intn(ProductsPerCategory)])}
	},
}

// driveSessions runs n sessions of gen for client from p, each step through
// a's request path.
func driveSessions(t *testing.T, p *sim.Proc, a *App, client workload.Client, gen workload.StreamGen, rng *rand.Rand, n int) {
	var st workload.StreamState
	var step workload.Step
	for n > 0 {
		step.Page = ""
		clear(step.Params)
		if !gen(rng, &st, &step) {
			st, n = workload.StreamState{}, n-1
			continue
		}
		st.Pos++
		if _, err := a.RequestFunc()(p, client, step); err != nil {
			t.Errorf("%s %s: %v", client.ID, step.Page, err)
		}
	}
}

// TestEdgeFacadesMatchMain is the edge ≡ main invariant of the declared edge
// façades. Under every pattern set with entity replicas and every extension
// configuration the layout deploys, unpartitioned and hash-partitioned four ways over four edges,
// a seeded run of browsers and buyers (whose orders write Inventory) runs
// from every client node and quiesces. Then every method of every declared
// façade on every edge returns what the main façade's method returns for the
// same arguments, drawn from the seed data.
func TestEdgeFacadesMatchMain(t *testing.T) {
	var policies []core.Policy
	for _, p := range append(core.PatternSets(), core.ExtensionConfigs...) {
		if p.EntityReplicas && layout.Check(p) == nil {
			policies = append(policies, p)
		}
	}
	for _, base := range policies {
		for _, parts := range []int{0, 4} {
			p := base
			if parts > 0 {
				p = partitioned(base, parts)
			}
			t.Run(fmt.Sprintf("%s/partitions=%d", base, parts), func(t *testing.T) {
				t.Parallel() // concurrent Envs share the declaration tables
				checkEdgeFacades(t, p)
			})
		}
	}
}

func checkEdgeFacades(t *testing.T, p core.Policy) {
	const seed = 17
	env := sim.NewEnv(seed)
	defer env.Close()
	d, h, err := core.NewHierarchicalDeployment(env, core.DefaultOptions(), simnet.HierarchySpec{Edges: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Deploy(d, p)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []string{simnet.NodeClientsMain}
	for _, e := range d.Edges {
		nodes = append(nodes, h.ClientNode(e.Name()))
	}
	for i, node := range nodes {
		for j, gen := range []workload.StreamGen{BrowserStream, BuyerStream} {
			client := workload.Client{Node: node, ID: fmt.Sprintf("c%d-%d", i, j)}
			rng := rand.New(rand.NewSource(int64(seed + 2*i + j)))
			env.Spawn(client.ID, func(p *sim.Proc) { driveSessions(t, p, a, client, gen, rng, 2) })
		}
	}
	env.RunAll()
	// Besides the draws, getItem is probed on every item the orders wrote.
	res, err := d.DB.Exec(`SELECT itemid FROM inventory WHERE qty < ?`, sqldb.Int(InitialInventoryQty))
	if err != nil || res.Len() == 0 {
		t.Fatalf("the run wrote %d inventory rows (%v), want some", res.Len(), err)
	}
	written := map[[2]string][][]sqldb.Value{}
	for _, row := range res.Rows {
		written[[2]string{BeanCatalog, "getItem"}] = append(written[[2]string{BeanCatalog, "getItem"}], row)
	}

	facades := layout.EdgeFacades(p)
	if len(facades) == 0 {
		t.Fatal("no edge façades declared")
	}
	rng := rand.New(rand.NewSource(seed))
	env.Spawn("probe", func(pr *sim.Proc) {
		for _, f := range facades {
			main, err := d.Main.StubFor(pr, d.Main.Name(), f.Bean)
			if err != nil {
				t.Error(err)
				return
			}
			for _, m := range f.Methods {
				draw := edgeArgs[[2]string{f.Bean, m.Name}]
				if draw == nil {
					t.Errorf("%s.%s: no argument draw", f.Bean, m.Name)
					continue
				}
				probes := written[[2]string{f.Bean, m.Name}]
				for range 8 {
					probes = append(probes, draw(rng))
				}
				for _, args := range probes {
					want, err := main.Invoke(pr, m.Name, args...)
					if err != nil {
						t.Errorf("main %s.%s%v: %v", f.Bean, m.Name, args, err)
						continue
					}
					for _, edge := range d.Edges {
						stub, err := edge.StubFor(pr, edge.Name(), f.Bean)
						if err != nil {
							t.Error(err)
							return
						}
						got, err := stub.Invoke(pr, m.Name, args...)
						if err != nil || !reflect.DeepEqual(got, want) {
							t.Errorf("%s %s.%s%v = %v, %v; main returns %v", edge.Name(), f.Bean, m.Name, args, got, err, want)
						}
					}
				}
			}
		}
	})
	env.RunAll()
}
