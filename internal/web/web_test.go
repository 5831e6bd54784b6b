package web

import (
	"errors"
	"testing"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
)

func testNet(t *testing.T, env *sim.Env) *simnet.Network {
	t.Helper()
	n := simnet.New(env)
	for _, id := range []string{"client", "server"} {
		if _, err := n.AddNode(id, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.AddLink("client", "server", 100*time.Millisecond, 1e12); err != nil {
		t.Fatal(err)
	}
	return n
}

// serialize is the time a 1e12 B/s link, the test networks', takes to put
// bytes on the wire, one message at a time.
func serialize(bytes int) time.Duration {
	return time.Duration(float64(bytes) / 1e12 * float64(time.Second))
}

func TestGetCostsTwoRoundTripsWithoutKeepAlive(t *testing.T) {
	env := sim.NewEnv(1)
	net := testNet(t, env)
	opts := DefaultOptions
	opts.DispatchCPU = 0
	c, err := NewContainer(net, "server", opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Handle("main", func(p *sim.Proc, r *Request) (*Response, error) {
		return &Response{Bytes: 1}, nil
	})
	var elapsed time.Duration
	env.Spawn("client", func(p *sim.Proc) {
		_, d, err := c.Get(p, "client", "main", nil, nil)
		if err != nil {
			t.Errorf("get: %v", err)
		}
		elapsed = d
	})
	env.RunAll()
	// Handshake RTT (200ms) + request/response RTT (200ms) = 400ms: the
	// paper's "extra 400 ms" for WAN page requests.
	if elapsed != 400*time.Millisecond {
		t.Fatalf("elapsed = %v, want 400ms", elapsed)
	}
}

func TestDispatchCPUCharged(t *testing.T) {
	env := sim.NewEnv(1)
	net := testNet(t, env)
	c, _ := NewContainer(net, "server", Options{DispatchCPU: 5 * time.Millisecond})
	c.Handle("main", func(p *sim.Proc, r *Request) (*Response, error) { return nil, nil })
	var elapsed time.Duration
	env.Spawn("client", func(p *sim.Proc) {
		_, d, err := c.Get(p, "client", "main", nil, nil)
		if err != nil {
			t.Errorf("get: %v", err)
		}
		elapsed = d
	})
	env.RunAll()
	// The link's 1e12 B/s serializes the default page in 8 ns.
	if want := 405*time.Millisecond + 2*serialize(HandshakeBytes) + serialize(RequestBytes) + serialize(DefaultPageBytes); elapsed != want {
		t.Fatalf("elapsed = %v, want %v (handshake RTT + request RTT + dispatch)", elapsed, want)
	}
	if served := env.Metrics().CounterValue(`web_requests_total{server="server"}`); served != 1 {
		t.Fatalf("served = %d", served)
	}
}

func TestConcurrentRequestsQueueOnCPU(t *testing.T) {
	env := sim.NewEnv(1)
	net := simnet.New(env)
	if _, err := net.AddNode("client", 16); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddNode("server", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddLink("client", "server", 0, 1e12); err != nil {
		t.Fatal(err)
	}
	c, _ := NewContainer(net, "server", Options{DispatchCPU: 10 * time.Millisecond})
	c.Handle("main", func(p *sim.Proc, r *Request) (*Response, error) { return nil, nil })
	done := 0
	for i := 0; i < 3; i++ {
		env.Spawn("client", func(p *sim.Proc) {
			if _, _, err := c.Get(p, "client", "main", nil, nil); err != nil {
				t.Errorf("get: %v", err)
			}
			done++
		})
	}
	env.RunAll()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	// Single CPU slot: three 10ms dispatches serialize to 30ms total, and
	// the last page then crosses the link.
	if want := 30*time.Millisecond + serialize(DefaultPageBytes); env.Now() != want {
		t.Fatalf("clock = %v, want %v (CPU serialized)", env.Now(), want)
	}
}

func TestUnknownPage(t *testing.T) {
	env := sim.NewEnv(1)
	net := testNet(t, env)
	c, _ := NewContainer(net, "server", DefaultOptions)
	env.Spawn("client", func(p *sim.Proc) {
		_, _, err := c.Get(p, "client", "missing", nil, nil)
		if !errors.Is(err, ErrNoSuchPage) {
			t.Errorf("err = %v, want ErrNoSuchPage", err)
		}
	})
	env.RunAll()
}

func TestHandlerErrorPropagates(t *testing.T) {
	env := sim.NewEnv(1)
	net := testNet(t, env)
	c, _ := NewContainer(net, "server", DefaultOptions)
	boom := errors.New("boom")
	c.Handle("bad", func(p *sim.Proc, r *Request) (*Response, error) { return nil, boom })
	env.Spawn("client", func(p *sim.Proc) {
		if _, _, err := c.Get(p, "client", "bad", nil, nil); !errors.Is(err, boom) {
			t.Errorf("err = %v", err)
		}
	})
	env.RunAll()
}

func TestSessionAttributes(t *testing.T) {
	s := NewSession("s1", "server")
	if s.Get("cart") != nil {
		t.Fatal("empty session returned value")
	}
	s.Set("cart", []string{"item1"})
	s.Set("user", "ann")
	if len(s.attrs) != 2 {
		t.Fatalf("len = %d", len(s.attrs))
	}
	if got := s.Get("user"); got != "ann" {
		t.Fatalf("user = %v", got)
	}
	s.Delete("user")
	if s.Get("user") != nil || len(s.attrs) != 1 {
		t.Fatal("delete failed")
	}
}

func TestRequestParamsAndSessionReachHandler(t *testing.T) {
	env := sim.NewEnv(1)
	net := testNet(t, env)
	c, _ := NewContainer(net, "server", DefaultOptions)
	sess := NewSession("s1", "server")
	c.Handle("item", func(p *sim.Proc, r *Request) (*Response, error) {
		if r.Param("id") != "42" {
			t.Errorf("id = %q", r.Param("id"))
		}
		if r.Param("missing") != "" {
			t.Error("missing param should be empty")
		}
		if r.Session != sess || r.ClientNode != "client" {
			t.Error("session/client not threaded through")
		}
		r.Session.Set("visited", true)
		return nil, nil
	})
	env.Spawn("client", func(p *sim.Proc) {
		if _, _, err := c.Get(p, "client", "item", map[string]string{"id": "42"}, sess); err != nil {
			t.Errorf("get: %v", err)
		}
	})
	env.RunAll()
	if sess.Get("visited") != true {
		t.Fatal("session write lost")
	}
}

func TestContainerOnMissingNode(t *testing.T) {
	env := sim.NewEnv(1)
	net := testNet(t, env)
	if _, err := NewContainer(net, "nowhere", DefaultOptions); err == nil {
		t.Fatal("container on missing node accepted")
	}
}

func TestResponseDefaults(t *testing.T) {
	env := sim.NewEnv(1)
	net := testNet(t, env)
	c, _ := NewContainer(net, "server", DefaultOptions)
	c.Handle("main", func(p *sim.Proc, r *Request) (*Response, error) {
		return &Response{}, nil // zero status and bytes
	})
	env.Spawn("client", func(p *sim.Proc) {
		resp, _, err := c.Get(p, "client", "main", nil, nil)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		if resp.Status != 200 || resp.Bytes != DefaultPageBytes {
			t.Errorf("resp = %+v", resp)
		}
	})
	env.RunAll()
}

func TestGetAcrossPartitionFails(t *testing.T) {
	env := sim.NewEnv(1)
	net := testNet(t, env)
	c, _ := NewContainer(net, "server", DefaultOptions)
	c.Handle("main", func(p *sim.Proc, r *Request) (*Response, error) { return nil, nil })
	if err := net.SetLinkState("client", "server", false); err != nil {
		t.Fatal(err)
	}
	env.Spawn("client", func(p *sim.Proc) {
		if _, _, err := c.Get(p, "client", "main", nil, nil); err == nil {
			t.Error("request across partition succeeded")
		}
	})
	env.RunAll()
}
