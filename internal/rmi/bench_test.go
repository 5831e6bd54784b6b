// Ablation benchmarks for the RMI design choices behind the remote-façade
// pattern, in virtual time per call.
package rmi_test

import (
	"testing"
	"time"

	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
)

func reportMs(b *testing.B, name string, d time.Duration) {
	b.ReportMetric(float64(d)/float64(time.Millisecond), name)
}

// benchEnv builds a two-server WAN for micro-ablation runs.
func benchEnv(b *testing.B, seed int64) (*sim.Env, *simnet.Network) {
	b.Helper()
	env := sim.NewEnv(seed)
	net, err := simnet.PaperTopology(env)
	if err != nil {
		b.Fatal(err)
	}
	return env, net
}

// BenchmarkAblationStubCaching quantifies the EJBHomeFactory pattern: the
// per-call cost of a remote invocation with cached stubs vs a fresh JNDI
// lookup on every call.
func BenchmarkAblationStubCaching(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "uncached-lookup"
		if cached {
			name = "cached-stub"
		}
		b.Run(name, func(b *testing.B) {
			env, net := benchEnv(b, 3)
			rt := rmi.NewRuntime(net, rmi.DefaultOptions)
			if _, err := rt.Bind(simnet.NodeMain, "svc", func(p *sim.Proc, c *rmi.Call) (any, error) {
				return nil, nil
			}); err != nil {
				b.Fatal(err)
			}
			var mean time.Duration
			env.Spawn("caller", func(p *sim.Proc) {
				cache := rmi.NewStubCache(rt, simnet.NodeEdge1, "")
				if cached {
					// Warm the cache: the one-time lookup is the point
					// of the pattern, not part of steady-state cost.
					if _, err := cache.Get(p, simnet.NodeMain, "svc"); err != nil {
						b.Fatal(err)
					}
				}
				var total time.Duration
				for i := 0; i < b.N; i++ {
					start := p.Now()
					var stub *rmi.Stub
					var err error
					if cached {
						stub, err = cache.Get(p, simnet.NodeMain, "svc")
					} else {
						stub, err = rt.Lookup(p, simnet.NodeEdge1, simnet.NodeMain, "svc")
					}
					if err != nil {
						b.Fatal(err)
					}
					if _, err := stub.Invoke(p, "m"); err != nil {
						b.Fatal(err)
					}
					total += p.Now() - start
				}
				mean = total / time.Duration(b.N)
			})
			env.RunAll()
			env.Close()
			reportMs(b, "call-ms", mean)
		})
	}
}

// BenchmarkAblationRMIRounds sweeps the RMI rounds-per-call factor the paper
// attributes to ping/DGC traffic.
func BenchmarkAblationRMIRounds(b *testing.B) {
	for _, rounds := range []float64{1.0, 1.25, 1.5, 2.0} {
		b.Run(time.Duration(rounds*float64(time.Second)).String(), func(b *testing.B) {
			env, net := benchEnv(b, 3)
			opts := rmi.DefaultOptions
			opts.Rounds = rounds
			rt := rmi.NewRuntime(net, opts)
			if _, err := rt.Bind(simnet.NodeMain, "svc", func(p *sim.Proc, c *rmi.Call) (any, error) {
				return nil, nil
			}); err != nil {
				b.Fatal(err)
			}
			var mean time.Duration
			env.Spawn("caller", func(p *sim.Proc) {
				stub, err := rt.LocalStub(simnet.NodeEdge1, simnet.NodeMain, "svc")
				if err != nil {
					b.Fatal(err)
				}
				var total time.Duration
				for i := 0; i < b.N; i++ {
					start := p.Now()
					if _, err := stub.Invoke(p, "m"); err != nil {
						b.Fatal(err)
					}
					total += p.Now() - start
				}
				mean = total / time.Duration(b.N)
			})
			env.RunAll()
			env.Close()
			reportMs(b, "call-ms", mean)
		})
	}
}
