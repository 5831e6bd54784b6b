package rubis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/workload"
)

// edgeArgs draws the arguments of each declared edge method from the seed
// data. A method declared without a line here fails the test below.
var edgeArgs = map[[2]string]func(rng *rand.Rand) []sqldb.Value{
	{SBBrowseCategories, "getAll"}: func(*rand.Rand) []sqldb.Value { return nil },
	{SBBrowseCategories, "forRegion"}: func(rng *rand.Rand) []sqldb.Value {
		return []sqldb.Value{sqldb.Int(int64(rng.Intn(NumRegions) + 1))}
	},
	{SBBrowseRegions, "getAll"}: func(*rand.Rand) []sqldb.Value { return nil },
	{SBSearchByCategory, "get"}: func(rng *rand.Rand) []sqldb.Value {
		return []sqldb.Value{sqldb.Int(int64(rng.Intn(NumCategories) + 1))}
	},
	{SBSearchByRegion, "get"}: func(rng *rand.Rand) []sqldb.Value {
		return []sqldb.Value{sqldb.Int(int64(rng.Intn(NumCategories) + 1)), sqldb.Int(int64(rng.Intn(NumRegions) + 1))}
	},
	{SBViewItem, "get"}:       drawItem,
	{SBViewBidHistory, "get"}: drawItem,
	{SBViewUserInfo, "get"}:   drawUser,
	{SBPutBid, "form"}: func(rng *rand.Rand) []sqldb.Value {
		return append(drawCreds(rng), drawItem(rng)...)
	},
	{SBPutComment, "form"}: func(rng *rand.Rand) []sqldb.Value {
		return append(drawCreds(rng), drawUser(rng)...)
	},
}

func drawItem(rng *rand.Rand) []sqldb.Value {
	return []sqldb.Value{sqldb.Int(int64(rng.Intn(NumItems) + 1))}
}
func drawUser(rng *rand.Rand) []sqldb.Value {
	return []sqldb.Value{sqldb.Int(int64(rng.Intn(NumUsers) + 1))}
}

func drawCreds(rng *rand.Rand) []sqldb.Value {
	u := rng.Intn(NumUsers)
	return []sqldb.Value{sqldb.Str(Nickname(u)), sqldb.Str(Password(u))}
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
// configuration the layout deploys, unpartitioned and
// hash-partitioned four ways over four edges, a seeded run of browsers and
// bidders (whose bids and comments write Item, Bid, User and Comment) runs
// from every client node and quiesces. Then every method of every declared
// façade on every edge returns what the main façade's method returns for the
// same arguments: draws from the seed data plus every item bid on and every
// user commented on.
func TestEdgeFacadesMatchMain(t *testing.T) {
	for _, base := range append(core.PatternSets(), core.ExtensionConfigs...) {
		if !base.EntityReplicas || layout.Check(base) != nil {
			continue
		}
		for _, parts := range []int{0, 4} {
			p := base
			if parts > 0 {
				p.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: parts}
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
	a := deployOn(t, seed, p, simnet.HierarchySpec{Edges: 4}, nil)
	d, env := a.d, a.d.Env
	defer env.Close()
	nodes := []string{simnet.NodeClientsMain}
	for _, e := range d.Edges {
		nodes = append(nodes, d.ClientNodeOf(e.Name()))
	}
	for i, node := range nodes {
		for j, gen := range []workload.StreamGen{BrowserStream, BidderStream} {
			client := workload.Client{Node: node, ID: fmt.Sprintf("c%d-%d", i, j)}
			rng := rand.New(rand.NewSource(int64(seed + 2*i + j)))
			env.Spawn(client.ID, func(p *sim.Proc) { driveSessions(t, p, a, client, gen, rng, 2) })
		}
	}
	env.RunAll()
	if a.Bids() == 0 || a.Comments() == 0 {
		t.Fatalf("the run wrote %d bids and %d comments, want some of each", a.Bids(), a.Comments())
	}
	written := map[[2]string][][]sqldb.Value{}
	for _, w := range []struct {
		sql     string
		seeded  int
		methods [][2]string
	}{
		{`SELECT item_id FROM bids WHERE id > ?`, NumItems * SeedBidsPerItem, [][2]string{{SBViewItem, "get"}, {SBViewBidHistory, "get"}}},
		{`SELECT to_user FROM comments WHERE id > ?`, SeedComments, [][2]string{{SBViewUserInfo, "get"}}},
	} {
		res, err := d.DB.Exec(w.sql, sqldb.Int(int64(w.seeded)))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range w.methods {
			written[m] = append(written[m], res.Rows...)
		}
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
