// Autoscale: the paper's long-term goal (Section 6) — dynamic demand-driven
// deployment of components. The app starts with NO edge replicas (deferred
// wiring); remote clients' reads cross the WAN to the main server. The
// online re-placement controller watches the wide-area call rate against the
// deployment advisor's break-even threshold and live-migrates the replica
// bundle to the edge servers at runtime — snapshot, catch-up, drain-buffer
// replay, cut-over — and remote read latency collapses mid-run.
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

// pushBytes is the replica-refresh payload for the Price bundle; the
// controller threshold below is derived from the same value.
const pushBytes = 256

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
	// A deferred deployment: the replica bundle is declared below but
	// deployed only when the controller extends it to an edge.
	opts := core.DefaultOptions()
	opts.Deferred = true
	d, err := core.NewPaperDeployment(env, opts)
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
			pk, _ := inv.Arg(0).(sqldb.Value)
			return prices.Load(p, pk)
		},
	}); err != nil {
		return err
	}

	// The descriptor is declared; nothing is deployed on the edges yet.
	wiring, err := core.AutoWire(d, &container.ExtendedDescriptor{
		Replicas: []container.ReplicaSpec{
			{Bean: "Price", Update: container.SyncUpdate},
		},
	}, core.WireOptions{
		PushBytes: pushBytes,
		FetchFor: func(server *container.Server, rwBean string) container.FetchFunc {
			return container.FetchFrom(server, simnet.NodeMain, "PriceFacade", "get")
		},
	})
	if err != nil {
		return err
	}

	// The extension trigger comes from the deployment advisor's cost model
	// rather than a hard-coded rate: replicas save (wide-area call − local
	// hit) per read but cost one blocking push per write, so the break-even
	// read rate scales with the write rate we provision for. Price updates
	// are rare in this scenario; provisioning for two per second puts the
	// threshold near two wide-area reads per second, with a floor so an
	// all-read workload still needs sustained traffic to trigger.
	params := (&planner.Model{Options: core.DefaultOptions(), PushBytes: pushBytes}).Params()
	const provisionedWrites = 2.0 // price updates per second
	threshold := planner.ExtensionThreshold(params, provisionedWrites)
	if threshold < 0.5 {
		threshold = 0.5
	}
	fmt.Printf("advisor: extension threshold %.1f wide-area calls/s (provisioned for %.1f writes/s)\n",
		threshold, provisionedWrites)

	// The re-placement controller in threshold mode: observe the remote-call
	// rate each epoch, and once it clears the advisor's break-even rate for
	// two consecutive epochs, live-migrate the replica bundle edge by edge.
	ctrl, err := controller.Start(controller.Config{
		Deployment: d,
		Wiring:     wiring,
		Threshold:  threshold,
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
