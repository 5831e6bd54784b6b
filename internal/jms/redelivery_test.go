package jms

import (
	"testing"
	"time"

	"wadeploy/internal/sim"
)

func TestRedeliveryLandsAfterPartitionHeals(t *testing.T) {
	env := sim.NewEnv(1)
	net := brokerNet(t, env)
	pr, err := NewProvider(net, "main", true)
	if err != nil {
		t.Fatal(err)
	}
	pr.CreateTopic("updates")
	delivered := 0
	if err := pr.Subscribe("updates", "edge1", "mdb", func(p *sim.Proc, m *Message) {
		delivered++
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkState("main", "edge1", false); err != nil {
		t.Fatal(err)
	}
	env.Spawn("writer", func(p *sim.Proc) {
		if err := pr.Publish(p, "main", "updates", "v1", 100); err != nil {
			t.Errorf("publish: %v", err)
		}
	})
	// Heal the partition after 3 s: the redelivery 5 s after the first
	// attempt lands the message.
	env.At(3*time.Second, func() {
		if err := net.SetLinkState("main", "edge1", true); err != nil {
			t.Error(err)
		}
	})
	env.RunAll()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (redelivery after heal)", delivered)
	}
	if got := env.Metrics().CounterValue("jms_redeliveries_total"); got != 1 {
		t.Fatalf("redeliveries = %d, want 1", got)
	}
	if got := env.Metrics().CounterValue("jms_deadletters_total"); got != 0 {
		t.Fatalf("deadletters = %d, want 0", got)
	}
}

func TestRedeliveryDeadLettersAfterCap(t *testing.T) {
	env := sim.NewEnv(2)
	net := brokerNet(t, env)
	pr, err := NewProvider(net, "main", true)
	if err != nil {
		t.Fatal(err)
	}
	pr.CreateTopic("updates")
	delivered := 0
	if err := pr.Subscribe("updates", "edge1", "mdb", func(p *sim.Proc, m *Message) {
		delivered++
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkState("main", "edge1", false); err != nil {
		t.Fatal(err)
	}
	env.Spawn("writer", func(p *sim.Proc) {
		if err := pr.Publish(p, "main", "updates", "v1", 100); err != nil {
			t.Errorf("publish: %v", err)
		}
	})
	env.RunAll()
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0", delivered)
	}
	if got := env.Metrics().CounterValue("jms_redeliveries_total"); got != redeliveryAttempts-1 {
		t.Fatalf("redeliveries = %d, want %d (%d attempts total)", got, redeliveryAttempts-1, redeliveryAttempts)
	}
	if got := env.Metrics().CounterValue("jms_deadletters_total"); got != 1 {
		t.Fatalf("deadletters = %d, want 1", got)
	}
}

func TestNoRedeliveryMetricsWithoutPolicy(t *testing.T) {
	env := sim.NewEnv(3)
	net := brokerNet(t, env)
	if _, err := NewProvider(net, "main", false); err != nil {
		t.Fatal(err)
	}
	for _, c := range env.Metrics().Snapshot().Counters {
		if c.Name == "jms_redeliveries_total" || c.Name == "jms_deadletters_total" {
			t.Fatalf("redelivery metric %s registered without a policy", c.Name)
		}
	}
}
