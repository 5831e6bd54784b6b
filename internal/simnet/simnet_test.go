package simnet

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"wadeploy/internal/sim"
)

func buildTriangle(t *testing.T, env *sim.Env) *Network {
	t.Helper()
	n := New(env)
	for _, id := range []string{"a", "b", "c"} {
		if _, err := n.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustLink := func(a, b string, lat time.Duration) {
		if _, err := n.AddLink(a, b, lat, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	mustLink("a", "b", 10*time.Millisecond)
	mustLink("b", "c", 10*time.Millisecond)
	mustLink("a", "c", 50*time.Millisecond)
	return n
}

func TestShortestPathRouting(t *testing.T) {
	env := sim.NewEnv(1)
	n := buildTriangle(t, env)
	// a->c direct is 50ms; via b is 20ms, so the route should go via b.
	lat, err := n.Route("a", "c").Latency()
	if err != nil {
		t.Fatal(err)
	}
	if lat != 20*time.Millisecond {
		t.Fatalf("latency a->c = %v, want 20ms via b", lat)
	}
}

func TestRTTSymmetric(t *testing.T) {
	env := sim.NewEnv(1)
	n := buildTriangle(t, env)
	ab, err := n.Route("a", "b").RTT()
	if err != nil {
		t.Fatal(err)
	}
	ba, err := n.Route("b", "a").RTT()
	if err != nil {
		t.Fatal(err)
	}
	if ab != ba || ab != 20*time.Millisecond {
		t.Fatalf("RTT a<->b = %v / %v, want 20ms both ways", ab, ba)
	}
}

func TestSelfLatencyZero(t *testing.T) {
	env := sim.NewEnv(1)
	n := buildTriangle(t, env)
	lat, err := n.Route("a", "a").Latency()
	if err != nil || lat != 0 {
		t.Fatalf("self latency = %v, %v; want 0, nil", lat, err)
	}
}

func TestLinkFailureReroutes(t *testing.T) {
	env := sim.NewEnv(1)
	n := buildTriangle(t, env)
	if err := n.SetLinkState("a", "b", false); err != nil {
		t.Fatal(err)
	}
	lat, err := n.Route("a", "b").Latency()
	if err != nil {
		t.Fatal(err)
	}
	// a-b must now go a-c-b: 50+10.
	if lat != 60*time.Millisecond {
		t.Fatalf("rerouted latency = %v, want 60ms", lat)
	}
}

func TestPartitionUnreachable(t *testing.T) {
	env := sim.NewEnv(1)
	n := buildTriangle(t, env)
	if err := n.SetLinkState("a", "b", false); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkState("a", "c", false); err != nil {
		t.Fatal(err)
	}
	_, err := n.Route("a", "b").Latency()
	var ue *UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnreachableError", err)
	}
	if n.Route("a", "c").Reachable() {
		t.Fatal("a should not reach c after partition")
	}
	// Recovery restores routing.
	if err := n.SetLinkState("a", "b", true); err != nil {
		t.Fatal(err)
	}
	if !n.Route("a", "b").Reachable() {
		t.Fatal("a should reach b after recovery")
	}
}

func TestTransferDelayIncludesSerialization(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env)
	if _, err := n.AddNode("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddNode("b", 1); err != nil {
		t.Fatal(err)
	}
	// 1000 bytes/s, 10ms latency: a 100-byte message takes 100ms + 10ms.
	if _, err := n.AddLink("a", "b", 10*time.Millisecond, 1000); err != nil {
		t.Fatal(err)
	}
	var got time.Duration
	env.Spawn("xfer", func(p *sim.Proc) {
		if err := n.Transfer(p, "a", "b", 100); err != nil {
			t.Errorf("transfer: %v", err)
		}
		got = p.Now()
	})
	env.RunAll()
	if got != 110*time.Millisecond {
		t.Fatalf("transfer completed at %v, want 110ms", got)
	}
}

func TestLinkSerializationQueues(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env)
	for _, id := range []string{"a", "b"} {
		if _, err := n.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.AddLink("a", "b", 0, 1000); err != nil {
		t.Fatal(err)
	}
	// Two back-to-back 100-byte sends at t=0 must serialize: 100ms, 200ms.
	d1, err := n.Route("a", "b").Delay(100)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := n.Route("a", "b").Delay(100)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != 100*time.Millisecond || d2 != 200*time.Millisecond {
		t.Fatalf("delays = %v, %v; want 100ms, 200ms", d1, d2)
	}
}

func TestOppositeDirectionsDoNotContend(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env)
	for _, id := range []string{"a", "b"} {
		if _, err := n.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.AddLink("a", "b", 0, 1000); err != nil {
		t.Fatal(err)
	}
	d1, _ := n.Route("a", "b").Delay(100)
	d2, _ := n.Route("b", "a").Delay(100)
	if d1 != d2 {
		t.Fatalf("full-duplex link contended: %v vs %v", d1, d2)
	}
}

func TestDuplicateNodeRejected(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env)
	if _, err := n.AddNode("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddNode("a", 1); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestLinkValidation(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env)
	if _, err := n.AddNode("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink("a", "missing", time.Millisecond, 1e6); err == nil {
		t.Fatal("link to missing node accepted")
	}
	if _, err := n.AddNode("b", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink("a", "b", time.Millisecond, 0); err == nil {
		t.Fatal("zero-bandwidth link accepted")
	}
	if err := n.SetLinkState("a", "b", false); err == nil {
		t.Fatal("SetLinkState on missing link succeeded")
	}
}

func TestPaperTopologyRTTs(t *testing.T) {
	env := sim.NewEnv(1)
	n, err := PaperTopology(env)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b string
		want time.Duration
	}{
		{NodeMain, NodeEdge1, 2 * WANOneWay},
		{NodeMain, NodeEdge2, 2 * WANOneWay},
		{NodeEdge1, NodeEdge2, 2 * WANOneWay},
		{NodeClientsMain, NodeMain, 2 * LANOneWay},
		{NodeClientsEdge1, NodeEdge1, 2 * LANOneWay},
		{NodeDB, NodeMain, 2 * LANOneWay},
		// Remote clients to the main server cross the WAN.
		{NodeClientsEdge1, NodeMain, 2 * (LANOneWay + WANOneWay)},
	}
	for _, c := range cases {
		got, err := n.Route(c.a, c.b).RTT()
		if err != nil {
			t.Fatalf("RTT(%s,%s): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("RTT(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPaperTopologyWANFailureIsolatesEdge(t *testing.T) {
	env := sim.NewEnv(1)
	n, err := PaperTopology(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkState(NodeEdge1, NodeRouter, false); err != nil {
		t.Fatal(err)
	}
	if n.Route(NodeEdge1, NodeMain).Reachable() {
		t.Fatal("edge1 should be cut off from main")
	}
	// Clients on edge1's LAN can still reach edge1.
	if !n.Route(NodeClientsEdge1, NodeEdge1).Reachable() {
		t.Fatal("edge1 LAN clients should still reach edge1")
	}
}

// Property: triangle inequality with respect to routing — the routed latency
// between any two nodes never exceeds latency via any intermediate node.
func TestPropertyRoutingOptimality(t *testing.T) {
	f := func(l1, l2, l3 uint16) bool {
		env := sim.NewEnv(1)
		n := New(env)
		for _, id := range []string{"a", "b", "c"} {
			if _, err := n.AddNode(id, 1); err != nil {
				return false
			}
		}
		d := func(v uint16) time.Duration { return time.Duration(v%1000+1) * time.Microsecond }
		if _, err := n.AddLink("a", "b", d(l1), 1e9); err != nil {
			return false
		}
		if _, err := n.AddLink("b", "c", d(l2), 1e9); err != nil {
			return false
		}
		if _, err := n.AddLink("a", "c", d(l3), 1e9); err != nil {
			return false
		}
		ac, err := n.Route("a", "c").Latency()
		if err != nil {
			return false
		}
		ab, _ := n.Route("a", "b").Latency()
		bc, _ := n.Route("b", "c").Latency()
		direct := d(l3)
		viaB := d(l1) + d(l2)
		want := direct
		if viaB < want {
			want = viaB
		}
		return ac == want && ab <= d(l1) && bc <= d(l2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Delay is monotonic in message size on an otherwise idle network.
func TestPropertyDelayMonotonicInSize(t *testing.T) {
	f := func(sz1, sz2 uint16) bool {
		env := sim.NewEnv(1)
		n := New(env)
		if _, err := n.AddNode("a", 1); err != nil {
			return false
		}
		if _, err := n.AddNode("b", 1); err != nil {
			return false
		}
		if _, err := n.AddLink("a", "b", time.Millisecond, 1e4); err != nil {
			return false
		}
		small, large := int(sz1), int(sz2)
		if small > large {
			small, large = large, small
		}
		// Fresh link per measurement to avoid serialization carryover.
		d1, err := n.Route("a", "b").Delay(small)
		if err != nil {
			return false
		}
		env2 := sim.NewEnv(1)
		n2 := New(env2)
		if _, err := n2.AddNode("a", 1); err != nil {
			return false
		}
		if _, err := n2.AddNode("b", 1); err != nil {
			return false
		}
		if _, err := n2.AddLink("a", "b", time.Millisecond, 1e4); err != nil {
			return false
		}
		d2, err := n2.Route("a", "b").Delay(large)
		if err != nil {
			return false
		}
		return d1 <= d2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
