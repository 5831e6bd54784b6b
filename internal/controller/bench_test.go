// Host-time benchmarks of the re-placement control loop.
package controller_test

import (
	"testing"
	"time"

	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// BenchmarkControllerTick prices one idle controller epoch — the per-epoch
// observe/re-plan overhead a deployment pays for running the re-placement
// control loop when nothing is worth doing.
func BenchmarkControllerTick(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	d, w, _ := priceRig(b, env, core.DefaultOptions(), 50, false)
	// A reader on main gains nothing from replicas: every epoch observes and
	// re-plans, and none acts.
	_, err := controller.Start(controller.Config{
		Deployment: d,
		Wiring:     w,
		Model:      priceModel(false),
		Seed:       1,
		Options:    controller.Options{Epoch: time.Second},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Run(time.Duration(i+1) * time.Second) // exactly one epoch tick per iteration
	}
}

// BenchmarkMigrationThroughput drives a full model-triggered extension —
// snapshot, bulk transfer, catch-up, cut-over — to both edges and reports
// the migrated volume and the virtual time one migration occupies.
func BenchmarkMigrationThroughput(b *testing.B) {
	const rows = 2000
	var migBytes, migVirtual, migs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := sim.NewEnv(1)
		d, w, _ := priceRig(b, env, core.DefaultOptions(), rows, false)
		ctrl, err := controller.Start(controller.Config{
			Deployment: d,
			Wiring:     w,
			Model:      priceModel(true),
			Seed:       1,
			Options:    controller.Options{Epoch: 2 * time.Second},
		})
		if err != nil {
			b.Fatal(err)
		}
		edge := d.Edges[0]
		env.Spawn("reader", func(p *sim.Proc) {
			for p.Now() < 20*time.Second {
				if stub, err := edge.StubFor(p, simnet.NodeMain, "PriceFacade"); err == nil {
					stub.Invoke(p, "get", sqldb.Int(7)) //nolint:errcheck
				}
				p.Sleep(100 * time.Millisecond)
			}
		})
		b.StartTimer()
		env.Run(30 * time.Second)
		b.StopTimer()
		rep := ctrl.Report()
		if !rep.Extended {
			b.Fatalf("controller never extended; events: %+v", rep.Events)
		}
		for _, m := range rep.Migrations {
			migBytes += int64(m.SnapshotBytes + m.CatchUpBytes)
			migVirtual += int64(m.End - m.Start)
			migs++
		}
		env.Close()
		b.StartTimer()
	}
	b.StopTimer()
	if migs > 0 {
		b.ReportMetric(float64(migBytes)/float64(b.N)/(1<<20), "migMB/op")
		b.ReportMetric(float64(migVirtual)/float64(migs)/float64(time.Millisecond), "virt-ms/migration")
	}
}
