package experiment

import (
	"runtime"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/race"
	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// The three full-stack workloads of the repository benchmark
// (bench/registry.go) as Go benchmarks, so `make profile` profiles a
// steady-state full-stack round: one iteration deploys the testbed off the
// clock and times exactly the call that advances the simulation, as a
// benchmark round does. A heap profile leaves the deploy out too: sampling
// is off while it runs, so `make allocs` divides the round's allocations
// alone by the pages/op reported here.

func benchmarkRound(b *testing.B, app AppID, cfg core.Policy, spec simnet.HierarchySpec, warmup, duration time.Duration) {
	b.ReportAllocs()
	pages, rate := 0, runtime.MemProfileRate
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.MemProfileRate = 0
		tb, err := deploy(app, cfg, RunOptions{Seed: 1}, spec, 1)
		runtime.MemProfileRate = rate
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
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}

func BenchmarkPetstoreCentralizedRound(b *testing.B) {
	benchmarkRound(b, PetStore, core.Centralized, simnet.HierarchySpec{}, 5*time.Minute, 30*time.Minute)
}

func BenchmarkRubisAsyncRound(b *testing.B) {
	benchmarkRound(b, RUBiS, core.AsyncUpdates, simnet.HierarchySpec{}, 5*time.Minute, 15*time.Minute)
}

func BenchmarkPetstoreTopo128Round(b *testing.B) {
	benchmarkRound(b, PetStore, topo128Policy(), simnet.DefaultHierarchySpec(128), 5*time.Minute, 20*time.Minute)
}

// topo128Policy is petstore-topo128's placement: query caching with the
// entities hash-partitioned eight ways over the edges.
func topo128Policy() core.Policy {
	cfg := core.QueryCaching
	cfg.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: 8}
	return cfg
}

// TestPageAllocBudget holds each full-stack workload to its heap-allocation
// budget per page, counted over the pages of a short round after its
// warm-up: a call envelope, row slice, boxed argument, result header,
// response or push batch that starts being allocated per page again shows
// here first.
func TestPageAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	cases := []struct {
		name   string
		app    AppID
		cfg    core.Policy
		spec   simnet.HierarchySpec
		budget float64
	}{
		{"petstore-centralized", PetStore, core.Centralized, simnet.HierarchySpec{}, 2.4},
		{"rubis-async", RUBiS, core.AsyncUpdates, simnet.HierarchySpec{}, 4.1},
		{"petstore-topo128", PetStore, topo128Policy(), simnet.DefaultHierarchySpec(128), 2.9},
	}
	const warmup = 2 * time.Minute
	for _, c := range cases {
		tb, err := deploy(c.app, c.cfg, RunOptions{Seed: 1}, c.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		pages, warm := 0, 0
		_, err = workload.Run(workload.Config{
			Env: tb.Env, Groups: tb.Groups, Warmup: warmup, Duration: 3 * time.Minute,
			Observer: func(now time.Duration, _ workload.Client, _ workload.SeriesKey, _ time.Duration, _ error) {
				if pages++; warm == 0 && now >= warmup {
					runtime.ReadMemStats(&before)
					warm = pages
				}
			},
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perPage := float64(after.Mallocs-before.Mallocs) / float64(pages-warm)
		t.Logf("%s: %.2f allocs/page over %d pages after warm-up", c.name, perPage, pages-warm)
		if perPage > c.budget {
			t.Errorf("%s allocates %.2f objects per page, budget %.1f", c.name, perPage, c.budget)
		}
	}
}
