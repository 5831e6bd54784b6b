// Ablation benchmark for the AutoWired update path: blocking push vs JMS.
package core_test

import (
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

func reportMs(b *testing.B, name string, d time.Duration) {
	b.ReportMetric(float64(d)/float64(time.Millisecond), name)
}

// BenchmarkAblationSyncVsAsyncPush measures the writer-observed cost of one
// replicated entity update under blocking RMI push vs JMS publication — the
// Section 4.3 vs 4.5 trade-off in isolation.
func BenchmarkAblationSyncVsAsyncPush(b *testing.B) {
	for _, mode := range []struct {
		name   string
		update container.Propagation
	}{{"sync", container.Propagation{}}, {"async", container.Propagation{Async: true}}} {
		b.Run(mode.name, func(b *testing.B) {
			env := sim.NewEnv(5)
			d, err := core.NewPaperDeployment(env, core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.DB.Exec(`CREATE TABLE kv (id INT PRIMARY KEY, v INT NOT NULL)`); err != nil {
				b.Fatal(err)
			}
			if _, err := d.DB.Exec(`INSERT INTO kv VALUES (1, 0)`); err != nil {
				b.Fatal(err)
			}
			rw, err := container.DeployRWEntity(d.Main, "KV", "kv", "id")
			if err != nil {
				b.Fatal(err)
			}
			d.RegisterRW(rw)
			if _, err := core.AutoWire(d, &container.ExtendedDescriptor{
				Topic: "kv-updates",
				Replicas: []container.ReplicaSpec{
					{Bean: "KV", Update: mode.update},
				},
			}, core.WireOptions{}, d.Edges...); err != nil {
				b.Fatal(err)
			}
			var mean time.Duration
			env.Spawn("writer", func(p *sim.Proc) {
				var total time.Duration
				for i := 0; i < b.N; i++ {
					start := p.Now()
					if _, err := rw.UpdateFields(p, sqldb.Int(1), container.State{
						"v": sqldb.Int(int64(i)),
					}); err != nil {
						b.Fatal(err)
					}
					total += p.Now() - start
				}
				mean = total / time.Duration(b.N)
			})
			env.RunAll()
			env.Close()
			reportMs(b, "write-ms", mean)
		})
	}
}
