// Host-time benchmarks of the re-placement control loop.
package controller_test

import (
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// benchControllerRig builds the minimal deployment the controller benchmarks
// drive: one replicated read-write bean with rows seeded, a remote façade on
// main, and a deferred wiring the controller can extend.
func benchControllerRig(b *testing.B, env *sim.Env, rows int) (*core.Deployment, *core.Wiring) {
	b.Helper()
	opts := core.DefaultOptions()
	opts.Deferred = true
	d, err := core.NewPaperDeployment(env, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.DB.Exec(`CREATE TABLE price (id INT PRIMARY KEY, cents INT NOT NULL)`); err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= rows; i++ {
		if _, err := d.DB.Exec(`INSERT INTO price VALUES (?, ?)`, sqldb.Int(int64(i)), sqldb.Int(int64(100*i))); err != nil {
			b.Fatal(err)
		}
	}
	rw, err := container.DeployRWEntity(d.Main, "Price", "price", "id")
	if err != nil {
		b.Fatal(err)
	}
	d.RegisterRW(rw)
	if _, err := container.DeployStateless(d.Main, "PriceFacade", map[string]container.Method{
		"get": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return rw.Load(p, inv.Args[0])
		},
	}); err != nil {
		b.Fatal(err)
	}
	w, err := core.AutoWire(d, &container.ExtendedDescriptor{
		Replicas: []container.ReplicaSpec{
			{Bean: "Price", Update: container.SyncUpdate},
		},
	}, core.WireOptions{PushBytes: 256})
	if err != nil {
		b.Fatal(err)
	}
	return d, w
}

// BenchmarkControllerTick prices one idle controller epoch — the per-epoch
// observe/re-plan overhead a deployment pays for running the re-placement
// control loop when nothing is worth doing.
func BenchmarkControllerTick(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	d, w := benchControllerRig(b, env, 50)
	// An unreachable threshold keeps every epoch on the observe path.
	_, err := controller.Start(controller.Config{
		Deployment: d,
		Wiring:     w,
		Threshold:  1e12,
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

// BenchmarkMigrationThroughput drives a full threshold-triggered extension —
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
		d, w := benchControllerRig(b, env, rows)
		ctrl, err := controller.Start(controller.Config{
			Deployment: d,
			Wiring:     w,
			Threshold:  1,
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
