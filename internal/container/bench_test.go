// Ablation benchmarks for replica propagation: payload shape, batching and
// fan-out width, in virtual time per write.
package container_test

import (
	"fmt"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

// newPusher builds an RMI pusher with the given window from srv to the
// "Updater" façade on each edge.
func newPusher(b *testing.B, srv *container.Server, window time.Duration, edges ...string) *container.Pusher {
	b.Helper()
	ps, err := container.NewPusher(srv, "", window)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range edges {
		ps.AddTarget(container.PushTarget{Server: e, Facade: "Updater"})
	}
	return ps
}

func reportMs(b *testing.B, name string, d time.Duration) {
	b.ReportMetric(float64(d)/float64(time.Millisecond), name)
}

// BenchmarkAblationDeltaVsFullPush isolates Section 4.3's "transfer only the
// changes" optimization on a thin WAN pipe, where full-state pushes pay for
// their payload.
func BenchmarkAblationDeltaVsFullPush(b *testing.B) {
	for _, delta := range []bool{false, true} {
		name := "full-state"
		if delta {
			name = "delta"
		}
		b.Run(name, func(b *testing.B) {
			env := sim.NewEnv(9)
			net := simnet.New(env)
			for _, id := range []string{"main", "edge"} {
				if _, err := net.AddNode(id, 2); err != nil {
					b.Fatal(err)
				}
			}
			// 128 kbit/s: payload size dominates.
			if _, err := net.AddLink("main", "edge", 100*time.Millisecond, 16*1024); err != nil {
				b.Fatal(err)
			}
			db := sqldb.New()
			if _, err := db.Exec(`CREATE TABLE wide (id INT PRIMARY KEY, a INT, bb INT, c INT, d INT, e INT)`); err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec(`INSERT INTO wide VALUES (1, 0, 0, 0, 0, 0)`); err != nil {
				b.Fatal(err)
			}
			rt := rmi.NewRuntime(net, rmi.DefaultOptions)
			mk := func(nodeName string) *container.Server {
				s, err := container.NewServer(container.Config{
					Name: nodeName, DBNode: "main", DB: db, Net: net, RMI: rt,
					Web: web.DefaultOptions,
				})
				if err != nil {
					b.Fatal(err)
				}
				return s
			}
			main, edge := mk("main"), mk("edge")
			rw, err := container.DeployRWEntity(main, "Wide", "wide", "id")
			if err != nil {
				b.Fatal(err)
			}
			rw.SetDeltaPush(delta)
			ro, err := container.DeployROEntity(edge, "WideRO", "Wide", nil)
			if err != nil {
				b.Fatal(err)
			}
			uf, err := container.DeployUpdaterFacade(edge, "Updater")
			if err != nil {
				b.Fatal(err)
			}
			uf.Register("Wide", ro)
			// A full-state record is FullStateBytes; a one-field delta is
			// a fraction of it.
			rw.AddPropagator(newPusher(b, main, 0, "edge"))
			var mean time.Duration
			env.Spawn("writer", func(p *sim.Proc) {
				var total time.Duration
				for i := 0; i < b.N; i++ {
					start := p.Now()
					if _, err := rw.UpdateFields(p, sqldb.Int(1), container.State{"a": sqldb.Int(int64(i))}); err != nil {
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

// BenchmarkBatchedPushThroughput measures the batched/coalesced lease path
// against per-commit blocking delta pushes on the same thin-pipe rig as the
// delta-vs-full ablation: a writer commits one-field updates every 10ms of
// virtual time, and the batched arm flushes one coalesced WAN message per
// 100ms window instead of paying a push per commit. Reported per arm:
// write-ms (mean commit latency), commits/s (virtual-time throughput),
// wan-msgs/commit and wan-bytes/commit.
func BenchmarkBatchedPushThroughput(b *testing.B) {
	for _, batched := range []bool{false, true} {
		name := "unbatched"
		if batched {
			name = "batched-100ms"
		}
		b.Run(name, func(b *testing.B) {
			env := sim.NewEnv(9)
			net := simnet.New(env)
			for _, id := range []string{"main", "edge"} {
				if _, err := net.AddNode(id, 2); err != nil {
					b.Fatal(err)
				}
			}
			// 128 kbit/s: payload size dominates.
			if _, err := net.AddLink("main", "edge", 100*time.Millisecond, 16*1024); err != nil {
				b.Fatal(err)
			}
			db := sqldb.New()
			if _, err := db.Exec(`CREATE TABLE wide (id INT PRIMARY KEY, a INT, bb INT, c INT, d INT, e INT)`); err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec(`INSERT INTO wide VALUES (1, 0, 0, 0, 0, 0)`); err != nil {
				b.Fatal(err)
			}
			rt := rmi.NewRuntime(net, rmi.DefaultOptions)
			mk := func(nodeName string) *container.Server {
				s, err := container.NewServer(container.Config{
					Name: nodeName, DBNode: "main", DB: db, Net: net, RMI: rt,
					Web: web.DefaultOptions,
				})
				if err != nil {
					b.Fatal(err)
				}
				return s
			}
			main, edge := mk("main"), mk("edge")
			rw, err := container.DeployRWEntity(main, "Wide", "wide", "id")
			if err != nil {
				b.Fatal(err)
			}
			rw.SetDeltaPush(true)
			ro, err := container.DeployROEntity(edge, "WideRO", "Wide", nil)
			if err != nil {
				b.Fatal(err)
			}
			uf, err := container.DeployUpdaterFacade(edge, "Updater")
			if err != nil {
				b.Fatal(err)
			}
			uf.Register("Wide", ro)
			var window time.Duration
			if batched {
				window = 100 * time.Millisecond
			}
			rw.AddPropagator(newPusher(b, main, window, "edge"))
			// Each iteration drives a burst of commits, so even the CI
			// smoke's single iteration spans many coalescing windows.
			const burst = 50
			commits := b.N * burst
			var mean, elapsed time.Duration
			env.Spawn("writer", func(p *sim.Proc) {
				begin := p.Now()
				var total time.Duration
				for i := 0; i < commits; i++ {
					start := p.Now()
					if _, err := rw.UpdateFields(p, sqldb.Int(1), container.State{"a": sqldb.Int(int64(i))}); err != nil {
						b.Fatal(err)
					}
					total += p.Now() - start
					p.Sleep(10 * time.Millisecond)
				}
				elapsed = p.Now() - begin
				mean = total / time.Duration(commits)
			})
			env.RunAll()
			snap := env.Metrics().Snapshot()
			env.Close()
			reportMs(b, "write-ms", mean)
			if elapsed > 0 {
				b.ReportMetric(float64(commits)/elapsed.Seconds(), "commits/s")
			}
			var msgs, wire float64
			if batched {
				msgs = float64(snap.Counter("push_batch_messages_total"))
				wire = float64(snap.Counter("push_batch_bytes_total"))
			} else {
				// Without a window every commit pays one push the size of a
				// one-field delta.
				one := container.Update{Bean: "Wide", Delta: true, State: container.RowOf(&[]string{"a"}, []sqldb.Value{sqldb.Int(0)})}
				msgs = float64(commits)
				wire = float64(commits * one.WireBytes())
			}
			b.ReportMetric(msgs/float64(commits), "wan-msgs/commit")
			b.ReportMetric(wire/float64(commits), "wan-bytes/commit")
		})
	}
}

// BenchmarkAblationSyncFanOut is the writer's cost of a blocking push to 1,
// 2 and 4 edge replicas: the pushes run one after the other, so write time
// grows with the replicas (Section 4.3).
func BenchmarkAblationSyncFanOut(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("edges=%d", n), func(b *testing.B) {
			env := sim.NewEnv(4)
			// The star's WAN legs, 100 ms one way between servers, under one
			// router.
			leg := simnet.LinkClass{OneWay: simnet.WANOneWay / 2, Bps: simnet.WANBps}
			h, err := simnet.BuildHierarchy(env, simnet.HierarchySpec{Edges: n, Hubs: 1, Backbone: leg, Metro: leg})
			if err != nil {
				b.Fatal(err)
			}
			net := h.Net
			db := sqldb.New()
			if _, err := db.Exec(`CREATE TABLE kv (id INT PRIMARY KEY, v INT NOT NULL)`); err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec(`INSERT INTO kv VALUES (1, 0)`); err != nil {
				b.Fatal(err)
			}
			rt := rmi.NewRuntime(net, rmi.DefaultOptions)
			mk := func(nodeName string) *container.Server {
				s, err := container.NewServer(container.Config{
					Name: nodeName, DBNode: simnet.NodeDB, DB: db, Net: net, RMI: rt,
					Web: web.DefaultOptions,
				})
				if err != nil {
					b.Fatal(err)
				}
				return s
			}
			main := mk(simnet.NodeMain)
			edges := h.ServerNodes()[1:]
			for _, edgeName := range edges {
				edge := mk(edgeName)
				ro, err := container.DeployROEntity(edge, "KVRO", "KV", nil)
				if err != nil {
					b.Fatal(err)
				}
				uf, err := container.DeployUpdaterFacade(edge, "Updater")
				if err != nil {
					b.Fatal(err)
				}
				uf.Register("KV", ro)
			}
			rw, err := container.DeployRWEntity(main, "KV", "kv", "id")
			if err != nil {
				b.Fatal(err)
			}
			rw.AddPropagator(newPusher(b, main, 0, edges...))
			var mean time.Duration
			env.Spawn("writer", func(p *sim.Proc) {
				var total time.Duration
				for i := 0; i < b.N; i++ {
					start := p.Now()
					if _, err := rw.UpdateFields(p, sqldb.Int(1), container.State{"v": sqldb.Int(int64(i))}); err != nil {
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
