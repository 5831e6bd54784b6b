package jms

import (
	"errors"
	"testing"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
)

// brokerNet builds main-edge with 100ms one-way latency; broker on main.
func brokerNet(t *testing.T, env *sim.Env) *simnet.Network {
	t.Helper()
	n := simnet.New(env)
	for _, id := range []string{"main", "edge1", "edge2"} {
		if _, err := n.AddNode(id, 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"edge1", "edge2"} {
		if _, err := n.AddLink("main", id, 100*time.Millisecond, 1e12); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestPublisherDoesNotBlockOnWANDelivery(t *testing.T) {
	env := sim.NewEnv(1)
	net := brokerNet(t, env)
	pr, err := NewProvider(net, "main", false)
	if err != nil {
		t.Fatal(err)
	}
	pr.CreateTopic("updates")
	var deliveredAt time.Duration
	if err := pr.Subscribe("updates", "edge1", "mdb", func(p *sim.Proc, m *Message) {
		deliveredAt = p.Now()
	}); err != nil {
		t.Fatal(err)
	}
	var publishDone time.Duration
	env.Spawn("writer", func(p *sim.Proc) {
		if err := pr.Publish(p, "main", "updates", "v1", 100); err != nil {
			t.Errorf("publish: %v", err)
		}
		publishDone = p.Now()
	})
	env.RunAll()
	if publishDone >= 100*time.Millisecond {
		t.Fatalf("publisher blocked for %v; must not wait for WAN delivery", publishDone)
	}
	if deliveredAt < 100*time.Millisecond {
		t.Fatalf("delivered at %v, want >= one-way WAN latency", deliveredAt)
	}
	reg := env.Metrics()
	if pub, del := reg.CounterValue("jms_published_total"), reg.CounterValue("jms_delivered_total"); pub != 1 || del != 1 {
		t.Fatalf("published=%d delivered=%d", pub, del)
	}
}

func TestFanOutToAllSubscribers(t *testing.T) {
	env := sim.NewEnv(1)
	net := brokerNet(t, env)
	pr, _ := NewProvider(net, "main", false)
	pr.CreateTopic("updates")
	got := map[string]int{}
	for _, node := range []string{"edge1", "edge2", "main"} {
		node := node
		if err := pr.Subscribe("updates", node, "mdb-"+node, func(p *sim.Proc, m *Message) {
			got[node]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	env.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := pr.Publish(p, "main", "updates", i, 0); err != nil {
				t.Errorf("publish: %v", err)
			}
		}
	})
	env.RunAll()
	for _, node := range []string{"edge1", "edge2", "main"} {
		if got[node] != 3 {
			t.Errorf("%s received %d, want 3", node, got[node])
		}
	}
}

func TestFIFODeliveryPerSubscription(t *testing.T) {
	env := sim.NewEnv(1)
	net := brokerNet(t, env)
	pr, _ := NewProvider(net, "main", false)
	pr.CreateTopic("updates")
	var order []int
	if err := pr.Subscribe("updates", "edge1", "mdb", func(p *sim.Proc, m *Message) {
		order = append(order, m.Body.(int))
	}); err != nil {
		t.Fatal(err)
	}
	env.Spawn("writer", func(p *sim.Proc) {
		// A big message followed immediately by a small one: without the
		// FIFO guard the small one could overtake on a fat link.
		if err := pr.Publish(p, "main", "updates", 1, 1<<20); err != nil {
			t.Error(err)
		}
		if err := pr.Publish(p, "main", "updates", 2, 1); err != nil {
			t.Error(err)
		}
	})
	env.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestPublishToMissingTopic(t *testing.T) {
	env := sim.NewEnv(1)
	net := brokerNet(t, env)
	pr, _ := NewProvider(net, "main", false)
	env.Spawn("writer", func(p *sim.Proc) {
		if err := pr.Publish(p, "main", "ghost", nil, 0); !errors.Is(err, ErrNoSuchTopic) {
			t.Errorf("err = %v, want ErrNoSuchTopic", err)
		}
	})
	env.RunAll()
}

func TestSubscribeValidation(t *testing.T) {
	env := sim.NewEnv(1)
	net := brokerNet(t, env)
	pr, _ := NewProvider(net, "main", false)
	if err := pr.Subscribe("ghost", "edge1", "mdb", nil); !errors.Is(err, ErrNoSuchTopic) {
		t.Fatalf("err = %v", err)
	}
	pr.CreateTopic("t")
	if err := pr.Subscribe("t", "nowhere", "mdb", nil); err == nil {
		t.Fatal("subscribe on missing node accepted")
	}
}

func TestPartitionedSubscriberSkipped(t *testing.T) {
	env := sim.NewEnv(1)
	net := brokerNet(t, env)
	pr, _ := NewProvider(net, "main", false)
	pr.CreateTopic("updates")
	edge1Got, edge2Got := 0, 0
	if err := pr.Subscribe("updates", "edge1", "mdb1", func(p *sim.Proc, m *Message) { edge1Got++ }); err != nil {
		t.Fatal(err)
	}
	if err := pr.Subscribe("updates", "edge2", "mdb2", func(p *sim.Proc, m *Message) { edge2Got++ }); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkState("main", "edge1", false); err != nil {
		t.Fatal(err)
	}
	env.Spawn("writer", func(p *sim.Proc) {
		if err := pr.Publish(p, "main", "updates", nil, 0); err != nil {
			t.Errorf("publish should skip unreachable subscriber, got %v", err)
		}
	})
	env.RunAll()
	if edge1Got != 0 || edge2Got != 1 {
		t.Fatalf("edge1=%d edge2=%d, want 0/1", edge1Got, edge2Got)
	}
}

func TestCreateTopicIdempotent(t *testing.T) {
	env := sim.NewEnv(1)
	net := brokerNet(t, env)
	pr, _ := NewProvider(net, "main", false)
	t1 := pr.CreateTopic("t")
	if err := pr.Subscribe("t", "edge1", "mdb", func(p *sim.Proc, m *Message) {}); err != nil {
		t.Fatal(err)
	}
	t2 := pr.CreateTopic("t")
	if t1 != t2 || len(t2.subs) != 1 {
		t.Fatal("CreateTopic not idempotent")
	}
}

func TestProviderOnMissingNode(t *testing.T) {
	env := sim.NewEnv(1)
	net := brokerNet(t, env)
	if _, err := NewProvider(net, "nowhere", false); err == nil {
		t.Fatal("provider on missing node accepted")
	}
}

func TestMessageMetadata(t *testing.T) {
	env := sim.NewEnv(1)
	net := brokerNet(t, env)
	pr, _ := NewProvider(net, "main", false)
	pr.CreateTopic("t")
	if err := pr.Subscribe("t", "main", "mdb", func(p *sim.Proc, m *Message) {
		if m.Topic != "t" || m.Bytes != MessageBytes {
			t.Errorf("message = %+v", m)
		}
		if m.PublishedAt <= 0 {
			t.Errorf("PublishedAt = %v", m.PublishedAt)
		}
	}); err != nil {
		t.Fatal(err)
	}
	env.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		if err := pr.Publish(p, "main", "t", "x", 0); err != nil {
			t.Error(err)
		}
	})
	env.RunAll()
}

func TestPublishFromRemoteNodePaysBrokerHop(t *testing.T) {
	env := sim.NewEnv(1)
	net := brokerNet(t, env)
	pr, err := NewProvider(net, "main", false)
	if err != nil {
		t.Fatal(err)
	}
	pr.CreateTopic("t")
	var cost time.Duration
	env.Spawn("edge-writer", func(p *sim.Proc) {
		start := p.Now()
		if err := pr.Publish(p, "edge1", "t", "x", 64); err != nil {
			t.Errorf("publish: %v", err)
		}
		cost = p.Now() - start
	})
	env.RunAll()
	// The publisher pays the publish CPU and the one-way hop to the broker
	// (100ms), no more.
	if cost < PublishCPU+100*time.Millisecond || cost > PublishCPU+150*time.Millisecond {
		t.Fatalf("remote publish cost %v, want ~one-way hop to broker", cost)
	}
}

func TestPublishFromPartitionedNodeFails(t *testing.T) {
	env := sim.NewEnv(1)
	net := brokerNet(t, env)
	pr, _ := NewProvider(net, "main", false)
	pr.CreateTopic("t")
	if err := net.SetLinkState("main", "edge1", false); err != nil {
		t.Fatal(err)
	}
	env.Spawn("edge-writer", func(p *sim.Proc) {
		if err := pr.Publish(p, "edge1", "t", "x", 64); err == nil {
			t.Error("publish across partition succeeded")
		}
	})
	env.RunAll()
}
