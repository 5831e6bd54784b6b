package rmi

import (
	"errors"
	"testing"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
)

// resilientOpts arms the constant resilience policy: 1 s call timeouts, 3
// attempts with 200 ms then 400 ms of backoff, and a 5-failure breaker with
// a 10 s cooldown.
var resilientOpts = Options{Rounds: 1, Resilient: true}

func counter(t *testing.T, env *sim.Env, name string) int64 {
	t.Helper()
	return env.Metrics().CounterValue(name)
}

func TestRetryRecoversFromDrops(t *testing.T) {
	env := sim.NewEnv(5)
	net := twoNodeNet(t, env)
	net.EnableFaults(5)
	rt := NewRuntime(net, resilientOpts)
	calls := 0
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) {
		calls++
		return "ok", nil
	}); err != nil {
		t.Fatal(err)
	}
	// 10% loss each way: invocations still succeed thanks to retries, and
	// timeout + retry counters move.
	if err := net.SetLinkQuality("a", "b", simnet.LinkQuality{DropProb: 0.1}); err != nil {
		t.Fatal(err)
	}
	ok, fail := 0, 0
	env.Spawn("caller", func(p *sim.Proc) {
		stub, err := rt.LocalStub("a", "b", "svc")
		if err != nil {
			t.Errorf("stub: %v", err)
			return
		}
		for i := 0; i < 50; i++ {
			if _, err := stub.Invoke(p, "m"); err != nil {
				fail++
			} else {
				ok++
			}
		}
	})
	env.RunAll()
	// Per-attempt success under 10% loss on two transfers is 81%, so
	// without retries ~40/50 succeed (48 or more 0.3% of the time); with 3
	// attempts 99.3% do. The loss stays under what opens the breaker: five
	// failed attempts in a row, which would fail every later call fast.
	if ok < 48 {
		t.Fatalf("only %d/50 calls succeeded under 10%% loss with 3 attempts", ok)
	}
	if got := counter(t, env, "rmi_retries_total"); got == 0 {
		t.Fatal("no retries recorded")
	}
	if got := counter(t, env, "rmi_call_timeouts_total"); got == 0 {
		t.Fatal("no call timeouts recorded")
	}
}

func TestDroppedCallChargesTimeoutAndBackoff(t *testing.T) {
	env := sim.NewEnv(9)
	net := twoNodeNet(t, env)
	net.EnableFaults(9)
	rt := NewRuntime(net, resilientOpts)
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) {
		return "ok", nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkQuality("a", "b", simnet.LinkQuality{DropProb: 1}); err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	var callErr error
	env.Spawn("caller", func(p *sim.Proc) {
		stub, _ := rt.LocalStub("a", "b", "svc")
		_, callErr = stub.Invoke(p, "m")
		elapsed = p.Now()
	})
	env.RunAll()
	if !errors.Is(callErr, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", callErr)
	}
	// 3 attempts x (marshal + 1s timeout) + backoffs of 200ms + 400ms: the
	// backoff doubles.
	want := 3*(MarshalCPU+time.Second) + 600*time.Millisecond
	if elapsed != want {
		t.Fatalf("failed call took %v, want %v", elapsed, want)
	}
	if got := counter(t, env, "rmi_call_timeouts_total"); got != 3 {
		t.Fatalf("timeouts = %d, want 3", got)
	}
	if got := counter(t, env, "rmi_retries_total"); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	env := sim.NewEnv(2)
	net := twoNodeNet(t, env)
	net.EnableFaults(2)
	rt := NewRuntime(net, resilientOpts)
	rt.resil.budgetUsed = retryBudget - 3 // three retries left of the lifetime's
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) {
		return "ok", nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkQuality("a", "b", simnet.LinkQuality{DropProb: 1}); err != nil {
		t.Fatal(err)
	}
	env.Spawn("caller", func(p *sim.Proc) {
		stub, _ := rt.LocalStub("a", "b", "svc")
		for i := 0; i < 4; i++ {
			if _, err := stub.Invoke(p, "m"); err == nil {
				t.Error("call unexpectedly succeeded with 100% loss")
			}
		}
	})
	env.RunAll()
	if got := counter(t, env, "rmi_retries_total"); got != 3 {
		t.Fatalf("retries = %d, want exactly the 3 the budget had left", got)
	}
	if got := counter(t, env, "rmi_retry_budget_exhausted_total"); got == 0 {
		t.Fatal("budget exhaustion not recorded")
	}
}

func TestBreakerOpensFastFailsAndRecovers(t *testing.T) {
	env := sim.NewEnv(3)
	net := twoNodeNet(t, env)
	rt := NewRuntime(net, resilientOpts)
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) {
		return "ok", nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkState("a", "b", false); err != nil {
		t.Fatal(err)
	}
	env.Spawn("caller", func(p *sim.Proc) {
		stub, _ := rt.LocalStub("a", "b", "svc")
		// The first call's three attempts fail unreachable.
		var ue *simnet.UnreachableError
		if _, err := stub.Invoke(p, "m"); !errors.As(err, &ue) {
			t.Errorf("first call: err = %v, want UnreachableError", err)
		}
		// The second call's second attempt is the fifth consecutive failure:
		// it opens the breaker, and the third attempt fails fast.
		var boe *BreakerOpenError
		if _, err := stub.Invoke(p, "m"); !errors.As(err, &boe) {
			t.Errorf("second call: err = %v, want BreakerOpenError", err)
		}
		// While open, calls fail fast without touching the network.
		before := p.Now()
		if _, err := stub.Invoke(p, "m"); !errors.As(err, &boe) {
			t.Errorf("err = %v, want BreakerOpenError", err)
		}
		if p.Now() != before {
			t.Errorf("fast-fail consumed %v of virtual time", p.Now()-before)
		}
		// Heal the link; after the cooldown a half-open probe succeeds and
		// closes the circuit.
		if err := net.SetLinkState("a", "b", true); err != nil {
			t.Error(err)
		}
		p.Sleep(breakerCooldown)
		if v, err := stub.Invoke(p, "m"); err != nil || v != "ok" {
			t.Errorf("post-cooldown probe: %v, %v", v, err)
		}
		if v, err := stub.Invoke(p, "m"); err != nil || v != "ok" {
			t.Errorf("post-recovery call: %v, %v", v, err)
		}
	})
	env.RunAll()
	if got := counter(t, env, "rmi_breaker_fastfail_total"); got != 2 {
		t.Fatalf("fast fails = %d, want 2", got)
	}
	if got := counter(t, env, "rmi_retries_total"); got != 4 {
		t.Fatalf("retries = %d, want 4 (two per failed call)", got)
	}
	for state, want := range map[string]int64{"open": 1, "half-open": 1, "closed": 1} {
		name := metrics.LabelName("rmi_breaker_transitions_total", "to", state)
		if got := counter(t, env, name); got != want {
			t.Fatalf("transitions to %s = %d, want %d", state, got, want)
		}
	}
}

func TestApplicationErrorsAreNotRetried(t *testing.T) {
	env := sim.NewEnv(4)
	net := twoNodeNet(t, env)
	rt := NewRuntime(net, resilientOpts)
	appErr := errors.New("boom")
	calls := 0
	if _, err := rt.Bind("b", "svc", func(p *sim.Proc, c *Call) (any, error) {
		calls++
		return nil, appErr
	}); err != nil {
		t.Fatal(err)
	}
	env.Spawn("caller", func(p *sim.Proc) {
		stub, _ := rt.LocalStub("a", "b", "svc")
		if _, err := stub.Invoke(p, "m"); !errors.Is(err, appErr) {
			t.Errorf("err = %v, want app error", err)
		}
	})
	env.RunAll()
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1 (no retries on app errors)", calls)
	}
	if got := counter(t, env, "rmi_retries_total"); got != 0 {
		t.Fatalf("retries = %d, want 0", got)
	}
}

func TestNoResilienceMetricsWithoutPolicies(t *testing.T) {
	env := sim.NewEnv(6)
	net := twoNodeNet(t, env)
	_ = NewRuntime(net, DefaultOptions)
	snap := env.Metrics().Snapshot()
	for _, c := range snap.Counters {
		switch c.Name {
		case "rmi_retries_total", "rmi_call_timeouts_total",
			"rmi_retry_budget_exhausted_total", "rmi_breaker_fastfail_total":
			t.Fatalf("resilience metric %s registered without a policy", c.Name)
		}
	}
}

// TestResilienceOffIsOneAttempt: a remote call whose request a lossy link
// drops makes one attempt without resilience — the drop comes back at once,
// with no call timeout slept and no resilience family registered — and, with
// it, three attempts a call timeout each, 200 ms then 400 ms of backoff
// apart.
func TestResilienceOffIsOneAttempt(t *testing.T) {
	families := []string{"rmi_retries_total", "rmi_call_timeouts_total",
		"rmi_retry_budget_exhausted_total", "rmi_breaker_fastfail_total", "rmi_breaker_transitions_total"}
	for _, c := range []struct {
		resilient bool
		want      time.Duration
		retries   int64
	}{
		{false, MarshalCPU, 0},
		{true, 3*(MarshalCPU+callTimeout) + backoffBase + 2*backoffBase, 2},
	} {
		env := sim.NewEnv(7)
		net := twoNodeNet(t, env)
		net.EnableFaults(7)
		rt := NewRuntime(net, Options{Rounds: 1, Resilient: c.resilient})
		calls := 0
		if _, err := rt.Bind("b", "svc", func(p *sim.Proc, _ *Call) (any, error) {
			calls++
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := net.SetLinkQuality("a", "b", simnet.LinkQuality{DropProb: 1}); err != nil {
			t.Fatal(err)
		}
		var elapsed time.Duration
		var callErr error
		env.Spawn("caller", func(p *sim.Proc) {
			stub, _ := rt.LocalStub("a", "b", "svc")
			_, callErr = stub.Invoke(p, "m")
			elapsed = p.Now()
		})
		env.RunAll()
		var de *simnet.DroppedError
		if c.resilient {
			if !errors.Is(callErr, ErrCallTimeout) {
				t.Errorf("resilient: err = %v, want ErrCallTimeout", callErr)
			}
		} else if !errors.As(callErr, &de) {
			t.Errorf("resilience off: err = %v, want the *simnet.DroppedError", callErr)
		}
		if elapsed != c.want || calls != 0 {
			t.Errorf("resilient=%v: the call took %v and ran the handler %d times, want %v and 0", c.resilient, elapsed, calls, c.want)
		}
		if got := counter(t, env, "rmi_retries_total"); got != c.retries {
			t.Errorf("resilient=%v: retries = %d, want %d", c.resilient, got, c.retries)
		}
		registered := map[string]bool{}
		for _, s := range env.Metrics().Snapshot().Counters {
			registered[s.Name] = true
		}
		for _, f := range families {
			if !c.resilient && registered[f] {
				t.Errorf("resilience off registered %s", f)
			}
		}
	}
}
