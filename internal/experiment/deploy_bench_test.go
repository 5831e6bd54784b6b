package experiment

import (
	"testing"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/petstore"
	"wadeploy/internal/rubis"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// BenchmarkDeploy times the application set-up of the repository
// benchmark's three full-stack workloads (bench/adapter.go): the app's Deploy
// on a fresh deployment, plus its client groups; the deployment itself is
// built off the clock. Deploy reads the application's package-level
// component list, so a deploy that built a planner model (its page weights
// average thousands of generated sessions) would show here at once.
func BenchmarkDeploy(b *testing.B) {
	star := func(opts core.Options) func(*sim.Env) (*core.Deployment, error) {
		return func(env *sim.Env) (*core.Deployment, error) { return core.NewPaperDeployment(env, opts) }
	}
	for _, w := range []struct {
		name   string
		build  func(*sim.Env) (*core.Deployment, error)
		deploy func(*core.Deployment) ([]workload.Group, error)
	}{
		{"petstore-centralized", star(core.DefaultOptions()), func(d *core.Deployment) ([]workload.Group, error) {
			a, err := petstore.Deploy(d, core.Centralized)
			if err != nil {
				return nil, err
			}
			return petstore.PaperWorkload(a), nil
		}},
		{"rubis-async", star(rubis.DeployOptions()), func(d *core.Deployment) ([]workload.Group, error) {
			a, err := rubis.Deploy(d, core.AsyncUpdates)
			if err != nil {
				return nil, err
			}
			return rubis.PaperWorkload(a), nil
		}},
		{"petstore-topo128", func(env *sim.Env) (*core.Deployment, error) {
			d, _, err := core.NewHierarchicalDeployment(env, core.DefaultOptions(), simnet.DefaultHierarchySpec(128))
			return d, err
		}, func(d *core.Deployment) ([]workload.Group, error) {
			part := &container.PartitionSpec{Scheme: container.HashPartition, Partitions: 8}
			a, err := petstore.DeployTopo(d, core.QueryCaching, petstore.TopoOptions{Partition: part})
			if err != nil {
				return nil, err
			}
			return petstore.TopoWorkload(a), nil
		}},
	} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				env := sim.NewEnv(1)
				d, err := w.build(env)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := w.deploy(d); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				env.Close()
				b.StartTimer()
			}
		})
	}
}
