package rmi

import (
	"errors"
	"testing"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// twoNodeNet builds a-b with 100ms one-way latency and fat pipes so that
// serialization is negligible in timing assertions.
func twoNodeNet(t *testing.T, env *sim.Env) *simnet.Network {
	t.Helper()
	n := simnet.New(env)
	for _, id := range []string{"a", "b"} {
		if _, err := n.AddNode(id, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.AddLink("a", "b", 100*time.Millisecond, 1e12); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLocalInvokeCostsDispatchOnly(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNodeNet(t, env)
	rt := NewRuntime(net, DefaultOptions)
	if _, err := rt.Bind("a", "svc", func(p *sim.Proc, c *Call) (any, error) {
		return "ok", nil
	}); err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	env.Spawn("caller", func(p *sim.Proc) {
		stub, err := rt.LocalStub("a", "a", "svc")
		if err != nil {
			t.Errorf("stub: %v", err)
			return
		}
		v, err := stub.Invoke(p, "hello")
		if err != nil || v != "ok" {
			t.Errorf("invoke: %v, %v", v, err)
		}
		elapsed = p.Now()
	})
	env.RunAll()
	if elapsed != DefaultOptions.LocalDispatch {
		t.Fatalf("local call took %v, want %v", elapsed, DefaultOptions.LocalDispatch)
	}
	if l, r := counter(t, env, "rmi_local_calls_total"), counter(t, env, "rmi_remote_calls_total"); l != 1 || r != 0 {
		t.Fatalf("local calls %d, remote calls %d", l, r)
	}
}

func TestRemoteInvokeCostsRoundsTimesRTT(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNodeNet(t, env)
	opts := DefaultOptions
	opts.Rounds = 1.5
	opts.MarshalCPU = 0
	rt := NewRuntime(net, opts)
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) {
		return 42, nil
	}); err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	env.Spawn("caller", func(p *sim.Proc) {
		stub, err := rt.LocalStub("a", "b", "svc")
		if err != nil {
			t.Errorf("stub: %v", err)
			return
		}
		v, err := stub.InvokeSized(p, "m", 0, 0, nil)
		if err != nil || v != 42 {
			t.Errorf("invoke: %v, %v", v, err)
		}
		elapsed = p.Now()
	})
	env.RunAll()
	// RTT = 200ms; 1.5 rounds = 300ms.
	if elapsed != 300*time.Millisecond {
		t.Fatalf("remote call took %v, want 300ms", elapsed)
	}
	if r := counter(t, env, "rmi_remote_calls_total"); r != 1 {
		t.Fatalf("remote calls %d", r)
	}
}

func TestRemoteLookupCostsRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNodeNet(t, env)
	opts := DefaultOptions
	opts.LocalDispatch = 0
	rt := NewRuntime(net, opts)
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	env.Spawn("caller", func(p *sim.Proc) {
		if _, err := rt.Lookup(p, "a", "b", "svc"); err != nil {
			t.Errorf("lookup: %v", err)
		}
		elapsed = p.Now()
	})
	env.RunAll()
	if elapsed < 200*time.Millisecond {
		t.Fatalf("remote lookup took %v, want >= 200ms", elapsed)
	}
	if l, r := counter(t, env, "rmi_lookups_total"), counter(t, env, "rmi_remote_lookups_total"); l != 1 || r != 1 {
		t.Fatalf("lookups %d, remote lookups %d", l, r)
	}
}

func TestStubCacheAvoidsSecondLookup(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNodeNet(t, env)
	rt := NewRuntime(net, DefaultOptions)
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	cache := NewStubCache(rt, "a", "")
	env.Spawn("caller", func(p *sim.Proc) {
		first := p.Now()
		if _, err := cache.Get(p, "b", "svc"); err != nil {
			t.Errorf("get: %v", err)
		}
		afterFirst := p.Now()
		if _, err := cache.Get(p, "b", "svc"); err != nil {
			t.Errorf("get: %v", err)
		}
		if p.Now() != afterFirst {
			t.Errorf("second Get cost %v, want free", p.Now()-afterFirst)
		}
		if afterFirst == first {
			t.Error("first Get should have cost a lookup")
		}
	})
	env.RunAll()
	if cache.Size() != 1 {
		t.Fatalf("cache size = %d", cache.Size())
	}
	if l := counter(t, env, "rmi_lookups_total"); l != 1 {
		t.Fatalf("lookups = %d, want 1", l)
	}
}

func TestLookupNotBound(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNodeNet(t, env)
	rt := NewRuntime(net, DefaultOptions)
	env.Spawn("caller", func(p *sim.Proc) {
		_, err := rt.Lookup(p, "a", "a", "ghost")
		if !errors.Is(err, ErrNotBound) {
			t.Errorf("err = %v, want ErrNotBound", err)
		}
	})
	env.RunAll()
}

func TestBindValidation(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNodeNet(t, env)
	rt := NewRuntime(net, DefaultOptions)
	if _, err := rt.Bind("ghost", "svc", nil); err == nil {
		t.Fatal("bind on missing node accepted")
	}
	if _, err := rt.Bind("a", "svc", func(p *sim.Proc, c *Call) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Bind("a", "svc", func(p *sim.Proc, c *Call) (any, error) { return nil, nil }); err == nil {
		t.Fatal("duplicate bind accepted")
	}
}

func TestUnbind(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNodeNet(t, env)
	rt := NewRuntime(net, DefaultOptions)
	if _, err := rt.Bind("a", "svc", func(p *sim.Proc, c *Call) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	rt.Unbind("a", "svc")
	if _, err := rt.LocalStub("a", "a", "svc"); !errors.Is(err, ErrNotBound) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokeAcrossDownLinkFails(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNodeNet(t, env)
	rt := NewRuntime(net, DefaultOptions)
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkState("a", "b", false); err != nil {
		t.Fatal(err)
	}
	env.Spawn("caller", func(p *sim.Proc) {
		stub, err := rt.LocalStub("a", "b", "svc")
		if err != nil {
			t.Errorf("stub: %v", err)
			return
		}
		if _, err := stub.Invoke(p, "m"); err == nil {
			t.Error("invoke across partition succeeded")
		}
	})
	env.RunAll()
}

func TestCallArgs(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNodeNet(t, env)
	rt := NewRuntime(net, DefaultOptions)
	if _, err := rt.Bind("a", "svc", func(p *sim.Proc, c *Call) (any, error) {
		if c.Method != "add" {
			t.Errorf("method = %s", c.Method)
		}
		if c.Caller != "a" {
			t.Errorf("caller = %s", c.Caller)
		}
		if len(c.Args) != 2 || c.Payload != nil {
			t.Errorf("args = %v, payload = %v", c.Args, c.Payload)
		}
		return c.Args[0].I + c.Args[1].I, nil
	}); err != nil {
		t.Fatal(err)
	}
	env.Spawn("caller", func(p *sim.Proc) {
		stub, _ := rt.LocalStub("a", "a", "svc")
		v, err := stub.Invoke(p, "add", sqldb.Int(2), sqldb.Int(3))
		if err != nil || v != int64(5) {
			t.Errorf("got %v, %v", v, err)
		}
	})
	env.RunAll()
}

func TestHandlerErrorPropagates(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNodeNet(t, env)
	rt := NewRuntime(net, DefaultOptions)
	boom := errors.New("boom")
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) {
		return nil, boom
	}); err != nil {
		t.Fatal(err)
	}
	env.Spawn("caller", func(p *sim.Proc) {
		stub, _ := rt.LocalStub("a", "b", "svc")
		if _, err := stub.Invoke(p, "m"); !errors.Is(err, boom) {
			t.Errorf("err = %v, want boom", err)
		}
	})
	env.RunAll()
}

func TestRoundsFloorIsOne(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNodeNet(t, env)
	rt := NewRuntime(net, Options{Rounds: 0.2})
	if rt.Options().Rounds != 1 {
		t.Fatalf("rounds = %v, want clamped to 1", rt.Options().Rounds)
	}
}

func TestInvokePayloadSizeAffectsDuration(t *testing.T) {
	env := sim.NewEnv(1)
	// Slow link so serialization dominates: 1 KB/s.
	net := simnet.New(env)
	for _, id := range []string{"a", "b"} {
		if _, err := net.AddNode(id, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink("a", "b", time.Millisecond, 1024); err != nil {
		t.Fatal(err)
	}
	opts := Options{Rounds: 1, MarshalCPU: 0}
	rt := NewRuntime(net, opts)
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	var small, large time.Duration
	env.Spawn("caller", func(p *sim.Proc) {
		stub, _ := rt.LocalStub("a", "b", "svc")
		start := p.Now()
		if _, err := stub.InvokeSized(p, "m", 128, 128, nil); err != nil {
			t.Error(err)
		}
		small = p.Now() - start
		start = p.Now()
		if _, err := stub.InvokeSized(p, "m", 4096, 4096, nil); err != nil {
			t.Error(err)
		}
		large = p.Now() - start
	})
	env.RunAll()
	// 8 KB total at 1 KB/s is ~8s vs ~0.25s for 256 bytes.
	if large < 4*small {
		t.Fatalf("payload size ignored: small=%v large=%v", small, large)
	}
}

func TestWideAreaRTTAccumulates(t *testing.T) {
	env := sim.NewEnv(1)
	net := twoNodeNet(t, env)
	rt := NewRuntime(net, DefaultOptions)
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	env.Spawn("caller", func(p *sim.Proc) {
		stub, _ := rt.LocalStub("a", "b", "svc")
		for i := 0; i < 3; i++ {
			if _, err := stub.Invoke(p, "m"); err != nil {
				t.Error(err)
			}
		}
	})
	env.RunAll()
	if got := env.Metrics().FindHistogram("rmi_remote_call_ns").Sum(); got < 600*time.Millisecond {
		t.Fatalf("remote call time = %v, want >= 3 calls' worth", got)
	}
}
