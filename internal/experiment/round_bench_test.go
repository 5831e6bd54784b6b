package experiment

import (
	"testing"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/workload"
)

// The two star workloads of the repository benchmark (bench/registry.go) as
// Go benchmarks, so `make profile` profiles a steady-state full-stack round:
// one iteration deploys the testbed off the clock and times exactly the call
// that advances the simulation, as a benchmark round does.

func benchmarkRound(b *testing.B, app AppID, cfg core.Policy, warmup, duration time.Duration) {
	b.ReportAllocs()
	pages := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb, err := Deploy(app, cfg, RunOptions{Seed: 1})
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
	benchmarkRound(b, PetStore, core.Centralized, 5*time.Minute, 30*time.Minute)
}

func BenchmarkRubisAsyncRound(b *testing.B) {
	benchmarkRound(b, RUBiS, core.AsyncUpdates, 5*time.Minute, 15*time.Minute)
}
