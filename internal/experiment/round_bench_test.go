package experiment

import (
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// The three full-stack workloads of the repository benchmark
// (bench/registry.go) as Go benchmarks, so `make profile` profiles a
// steady-state full-stack round: one iteration deploys the testbed off the
// clock and times exactly the call that advances the simulation, as a
// benchmark round does.

func benchmarkRound(b *testing.B, app AppID, cfg core.Policy, spec simnet.HierarchySpec, warmup, duration time.Duration) {
	b.ReportAllocs()
	pages := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb, err := deploy(app, cfg, RunOptions{Seed: 1}, spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, err = workload.Run(workload.Config{
			Env: tb.Env, Groups: tb.Groups, Warmup: warmup, Duration: duration,
			// Warm-up pages count too, as in the benchmark's pages_per_sec.
			Observer: func(time.Duration, workload.Client, workload.SeriesKey, time.Duration, error) { pages++ },
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pages)/b.Elapsed().Seconds(), "pages/s")
}

func BenchmarkPetstoreCentralizedRound(b *testing.B) {
	benchmarkRound(b, PetStore, core.Centralized, simnet.HierarchySpec{}, 5*time.Minute, 30*time.Minute)
}

func BenchmarkRubisAsyncRound(b *testing.B) {
	benchmarkRound(b, RUBiS, core.AsyncUpdates, simnet.HierarchySpec{}, 5*time.Minute, 15*time.Minute)
}

func BenchmarkPetstoreTopo128Round(b *testing.B) {
	cfg := core.QueryCaching
	cfg.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: 8}
	benchmarkRound(b, PetStore, cfg, simnet.DefaultHierarchySpec(128), 5*time.Minute, 20*time.Minute)
}
