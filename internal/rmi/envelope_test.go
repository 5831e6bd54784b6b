package rmi

import (
	"testing"
	"time"

	"wadeploy/internal/race"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// zeroCall reports whether c is a recycled, zeroed envelope.
func zeroCall(c *Call) bool { return c.Method == "" && c.Args == nil && c.Caller == "" }

// holdsOnly reports whether free keeps exactly the envelopes want, each
// once: taking len(want) hands out each of them, and the next take a new one.
// It empties the list.
func holdsOnly[T any](free *sim.Free[T], want ...*T) bool {
	left := map[*T]bool{}
	for _, w := range want {
		left[w] = true
	}
	for range want {
		v := free.Take(*new(T))
		if !left[v] {
			return false
		}
		delete(left, v)
	}
	v := free.Take(*new(T))
	for _, w := range want {
		if v == w {
			return false
		}
	}
	return true
}

// TestEnvelopeLifetime pins the Call envelope's contract: valid until its
// handler returns and zeroed after, one per invocation in flight, given back
// by a process Env.Close unwinds, and given back once by a retried call.
func TestEnvelopeLifetime(t *testing.T) {
	t.Run("zeroed after return", func(t *testing.T) {
		env := sim.NewEnv(1)
		rt := NewRuntime(twoNodeNet(t, env), DefaultOptions)
		var kept *Call
		if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) {
			if c.Method != "m" || len(c.Args) != 1 || c.Args[0] != sqldb.Int(7) || c.Caller != "a" {
				t.Errorf("handler sees %+v", *c)
			}
			kept = c
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		env.Spawn("caller", func(p *sim.Proc) {
			stub, _ := rt.LocalStub("a", "b", "svc")
			if _, err := stub.Invoke(p, "m", sqldb.Int(7)); err != nil {
				t.Error(err)
			}
		})
		env.RunAll()
		if kept == nil || !zeroCall(kept) || !holdsOnly(&rt.calls, kept) {
			t.Fatalf("kept envelope %+v, want it zeroed and the only one free", kept)
		}
	})

	t.Run("nested three deep", func(t *testing.T) {
		env := sim.NewEnv(1)
		rt := NewRuntime(twoNodeNet(t, env), DefaultOptions)
		inFlight, seen := map[*Call]bool{}, []*Call{}
		var stub *Stub
		if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) {
			if inFlight[c] {
				t.Errorf("envelope %p handed to a nested call while in flight", c)
			}
			inFlight[c], seen = true, append(seen, c)
			depth := c.Args[0].I
			if depth < 3 {
				if _, err := stub.Invoke(p, "nest", sqldb.Int(depth+1), sqldb.Str("inner")); err != nil {
					return nil, err
				}
			}
			if c.Method != "nest" || len(c.Args) != 2 || c.Args[0] != sqldb.Int(depth) || c.Caller != "b" {
				t.Errorf("depth %d sees %+v after its inner call returned", depth, *c)
			}
			delete(inFlight, c)
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		env.Spawn("caller", func(p *sim.Proc) {
			stub, _ = rt.LocalStub("b", "b", "svc")
			if _, err := stub.Invoke(p, "nest", sqldb.Int(1), sqldb.Str("outer")); err != nil {
				t.Error(err)
			}
		})
		env.RunAll()
		if len(seen) != 3 || !holdsOnly(&rt.calls, seen...) {
			t.Fatalf("%d nested calls; want 3 whose three envelopes are all free", len(seen))
		}
	})

	t.Run("killed by Close", func(t *testing.T) {
		env := sim.NewEnv(1)
		rt := NewRuntime(twoNodeNet(t, env), DefaultOptions)
		var killed *Call
		if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) {
			killed = c
			p.Sleep(time.Hour)
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		env.Spawn("caller", func(p *sim.Proc) {
			stub, _ := rt.LocalStub("a", "b", "svc")
			_, _ = stub.Invoke(p, "m", sqldb.Int(1))
			t.Error("a killed call returned")
		})
		env.Run(time.Minute)
		env.Close()
		if killed == nil || !zeroCall(killed) || !holdsOnly(&rt.calls, killed) {
			t.Fatal("the killed call's envelope is not back, zeroed, as the only free one")
		}
	})

	t.Run("retried call releases once", func(t *testing.T) {
		env := sim.NewEnv(5)
		net := twoNodeNet(t, env)
		net.EnableFaults(5)
		opts := resilientOpts()
		opts.Breaker = nil
		rt := NewRuntime(net, opts)
		var used []*Call
		if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) {
			if len(used) == 0 || used[len(used)-1] != c {
				used = append(used, c)
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := net.SetLinkQuality("a", "b", simnet.LinkQuality{DropProb: 0.3}); err != nil {
			t.Fatal(err)
		}
		env.Spawn("caller", func(p *sim.Proc) {
			stub, _ := rt.LocalStub("a", "b", "svc")
			for i := 0; i < 30; i++ {
				_, _ = stub.Invoke(p, "m")
			}
		})
		env.RunAll()
		if counter(t, env, "rmi_retries_total") == 0 {
			t.Fatal("no call was retried")
		}
		// Sequential calls, retried or not, reuse one envelope; given back
		// twice, it would be handed out twice.
		if len(used) != 1 || !holdsOnly(&rt.calls, used[0]) {
			t.Fatalf("sequential calls used %d envelopes, want 1 that is free once", len(used))
		}
	})
}

// TestParkedCallKeepsItsArguments: two processes call one remote stub
// through one shared argument slice, the second while the first is parked
// mid-call, marshalling or on the wire. Each handler, which runs only once
// the request has arrived, sees the arguments its caller passed: an envelope
// that aliased the caller's storage would show the first handler the second
// key.
func TestParkedCallKeepsItsArguments(t *testing.T) {
	env := sim.NewEnv(1)
	rt := NewRuntime(twoNodeNet(t, env), DefaultOptions)
	seen := map[string]int64{}
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) {
		seen[c.Args[0].S] = c.Args[1].I
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	stub, err := rt.LocalStub("a", "b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	shared := make([]sqldb.Value, 2) // one caller-owned buffer both calls pass
	for i, name := range []string{"first", "second"} {
		env.Spawn(name, func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond) // the first is on the wire by now
			shared[0], shared[1] = sqldb.Str(name), sqldb.Int(int64(i+1))
			if _, err := stub.Invoke(p, "m", shared...); err != nil {
				t.Error(err)
			}
		})
	}
	env.RunAll()
	if seen["first"] != 1 || seen["second"] != 2 || len(seen) != 2 {
		t.Fatalf("handlers saw %v, want first:1 second:2", seen)
	}
}

// A warm invocation with two scalar arguments allocates nothing, local or
// remote: the envelope is recycled, the arguments are copied into its room
// from the caller's stack, and the routes are held by the stub.
func TestWarmInvokeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	env := sim.NewEnv(1)
	rt := NewRuntime(twoNodeNet(t, env), DefaultOptions)
	for _, node := range []string{"a", "b"} {
		if _, err := rt.Bind(node, "svc", func(p *sim.Proc, c *Call) (any, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	allocs := map[string]float64{}
	env.Spawn("caller", func(p *sim.Proc) {
		for _, target := range []string{"a", "b"} {
			stub, _ := rt.LocalStub("a", target, "svc")
			n := int64(0)
			call := func() {
				n++
				if _, err := stub.Invoke(p, "m", sqldb.Str("key"), sqldb.Int(n)); err != nil {
					t.Error(err)
				}
			}
			for i := 0; i < 16; i++ {
				call()
			}
			allocs[target] = testing.AllocsPerRun(200, call)
		}
	})
	env.RunAll()
	env.Close()
	if allocs["a"] > 0 || allocs["b"] > 0 {
		t.Errorf("warm invoke allocates %.2f local, %.2f remote; want 0 and 0", allocs["a"], allocs["b"])
	}
}
