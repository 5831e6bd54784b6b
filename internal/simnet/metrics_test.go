package simnet

import (
	"testing"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/race"
	"wadeploy/internal/sim"
)

func TestDelayMetrics(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env)
	if _, err := n.AddNode("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddNode("b", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink("a", "b", 5*time.Millisecond, 1e6); err != nil {
		t.Fatal(err)
	}
	reg := env.Metrics()
	if got := reg.GaugeValue("simnet_links"); got != 1 {
		t.Fatalf("simnet_links = %d", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := n.Route("a", "b").Delay(1000); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Route("b", "a").Delay(500); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("simnet_messages_total"); got != 4 {
		t.Fatalf("simnet_messages_total = %d", got)
	}
	if got := reg.CounterValue("simnet_bytes_total"); got != 3500 {
		t.Fatalf("simnet_bytes_total = %d", got)
	}
	if got := reg.CounterValue(metrics.LabelName("simnet_link_bytes_total", "link", "a>b")); got != 3000 {
		t.Fatalf("a>b bytes = %d", got)
	}
	if got := reg.CounterValue(metrics.LabelName("simnet_link_bytes_total", "link", "b>a")); got != 500 {
		t.Fatalf("b>a bytes = %d", got)
	}
	h := reg.FindHistogram("simnet_delivery_delay_ns")
	if h == nil || h.Count() != 4 || h.Min() < 5*time.Millisecond {
		t.Fatalf("delivery delay histogram: %+v", h)
	}
	// Back-to-back sends at the same instant queue behind the transmitter:
	// the second and third message wait one and two serialization times.
	q := reg.FindHistogram(metrics.LabelName("simnet_link_queue_wait_ns", "link", "a>b"))
	if q == nil || q.Count() != 3 || q.Max() == 0 {
		t.Fatalf("queue wait histogram: %+v", q)
	}
}

// TestDelayAllocs extends the sim alloc guards to the instrumented network
// hot path: a routed, metered Delay must stay allocation-free once routes
// and histogram buckets are warm.
func TestDelayAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	env := sim.NewEnv(1)
	n := New(env)
	for _, id := range []string{"a", "r", "b"} {
		if _, err := n.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.AddLink("a", "r", time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink("r", "b", time.Millisecond, 1e9); err != nil {
		t.Fatal(err)
	}
	// Zero-byte messages keep serialization (and hence queue waits and the
	// delivery delay) constant, so warmed histogram buckets never grow.
	for i := 0; i < 100; i++ {
		if _, err := n.Route("a", "b").Delay(0); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := n.Route("a", "b").Delay(0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("instrumented Delay allocates %.2f per call; want 0", avg)
	}
}
