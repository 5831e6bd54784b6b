// Autoscale: the paper's long-term goal (Section 6) — dynamic demand-driven
// deployment of components. The app starts with NO edge replicas (its
// replica bundle wired onto no server); remote clients' reads cross the WAN
// to the main server. The online re-placement controller re-prices the
// placement each epoch with the deployment advisor's cost model of the app
// and live-migrates the replica bundle to the edge servers at runtime —
// snapshot, catch-up, drain-buffer replay, cut-over — and remote read
// latency collapses mid-run.
package main

import (
	"fmt"
	"os"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/planner"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// seed keys the run: the workload, the simulation and the controller's
// retry-jitter stream all derive from it.
const seed = 23

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "autoscale:", err)
		os.Exit(1)
	}
}

func run() error {
	env := sim.NewEnv(seed)
	d, err := core.NewPaperDeployment(env, core.DefaultOptions())
	if err != nil {
		return err
	}
	if _, err := d.DB.Exec(`CREATE TABLE price (id INT PRIMARY KEY, cents INT NOT NULL)`); err != nil {
		return err
	}
	for i := 1; i <= 50; i++ {
		if _, err := d.DB.Exec(`INSERT INTO price VALUES (?, ?)`, sqldb.Int(int64(i)), sqldb.Int(int64(100*i))); err != nil {
			return err
		}
	}
	prices, err := container.DeployRWEntity(d.Main, "Price", "price", "id")
	if err != nil {
		return err
	}
	d.RegisterRW(prices)
	if _, err := container.DeployStateless(d.Main, "PriceFacade", map[string]container.Method{
		"get": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			row, err := prices.Load(p, inv.Args[0])
			return container.Reply(inv, row, err)
		},
	}); err != nil {
		return err
	}

	// The descriptor is declared and wired onto no server: nothing is
	// deployed on the edges until the controller extends the bundle.
	wiring, err := core.AutoWire(d, &container.ExtendedDescriptor{
		Replicas: []container.ReplicaSpec{
			{Bean: "Price", Update: container.Propagation{}},
		},
	}, core.WireOptions{
		FetchFor: func(server *container.Server, rwBean string) container.FetchFunc {
			return container.FetchFrom(server, simnet.NodeMain, "PriceFacade", "get")
		},
	})
	if err != nil {
		return err
	}

	// The re-placement controller re-plans each epoch on the advisor's model
	// of this app — one entity, its façade pinned to main, one page that
	// reads a price from the edge's replica when there is one and through
	// the façade otherwise, read by a client on an edge — and once the
	// replicated placement's predicted win clears the hysteresis bar for two
	// consecutive epochs, live-migrates the replica bundle edge by edge.
	model := &planner.Model{
		Layout: &planner.Layout{
			App: "price",
			Components: []planner.Component{
				planner.Entity("Price", "price", "id"),
				planner.Facade("PriceFacade", container.StatelessSession, planner.EdgeNever),
			},
			Replicated: []string{"Price"},
		},
		Options:  core.DefaultOptions(),
		Patterns: []planner.Pattern{{Name: "Reader", Visits: map[string]float64{"price": 1}}},
		Classes:  []planner.Class{{Pattern: "Reader", Clients: 1}},
		Pages: []planner.Page{{Name: "price", Body: planner.Read{
			Beans: []string{"Price"},
			Else:  planner.Call{Bean: "PriceFacade", Method: "get", Body: planner.Load{}},
		}}},
	}
	ctrl, err := controller.Start(controller.Config{
		Deployment: d,
		Wiring:     wiring,
		Model:      model,
		Seed:       seed,
		Options:    controller.Options{Epoch: 10 * time.Second},
	})
	if err != nil {
		return err
	}

	// readPrice reads id 7 the best way currently available on the edge:
	// a local replica if the controller has migrated one in, otherwise a
	// wide-area façade call.
	readPrice := func(p *sim.Proc, edge *container.Server) (time.Duration, error) {
		start := p.Now()
		if ro := wiring.Replica(edge.Name(), "Price"); ro != nil {
			if _, err := ro.Get(p, sqldb.Int(7)); err != nil {
				return 0, err
			}
			return p.Now() - start, nil
		}
		stub, err := edge.StubFor(p, simnet.NodeMain, "PriceFacade")
		if err != nil {
			return 0, err
		}
		if _, err := stub.Invoke(p, "get", sqldb.Int(7)); err != nil {
			return 0, err
		}
		return p.Now() - start, nil
	}

	// Remote load on edge1: back-to-back reads with a 100 ms think time for
	// two minutes, sampling observed latency every 20 seconds.
	edge := d.Edges[0]
	var failed error
	env.Spawn("reader", func(p *sim.Proc) {
		var window []time.Duration
		nextReport := 20 * time.Second
		for p.Now() < 2*time.Minute {
			rt, err := readPrice(p, edge)
			if err != nil {
				failed = err
				return
			}
			window = append(window, rt)
			if p.Now() >= nextReport {
				var sum time.Duration
				for _, w := range window {
					sum += w
				}
				fmt.Printf("t=%-6v mean read latency %8v  (replicas on edge: %v)\n",
					p.Now().Round(time.Second), (sum / time.Duration(len(window))).Round(100*time.Microsecond),
					wiring.DeployedOn(edge.Name()))
				window = window[:0]
				nextReport += 20 * time.Second
			}
			p.Sleep(100 * time.Millisecond)
		}
	})
	env.Run(3 * time.Minute)
	env.Close()
	if failed != nil {
		return failed
	}
	rep := ctrl.Report()
	for _, ev := range rep.Events {
		fmt.Printf("controller: %-14s %-6s t=%-5v %s\n", ev.Kind, ev.Server, ev.At.Round(time.Second), ev.Detail)
	}
	for _, m := range rep.Migrations {
		fmt.Printf("controller: migrated Price bundle to %s in %v (%d snapshot bytes, %d catch-up rounds, %d updates replayed)\n",
			m.Server, (m.End - m.Start).Round(time.Millisecond), m.SnapshotBytes, m.Rounds, m.Replayed)
	}
	return nil
}
