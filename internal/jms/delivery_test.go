package jms

import (
	"slices"
	"testing"
	"time"

	"wadeploy/internal/race"
	"wadeploy/internal/sim"
)

// TestSameInstantArrivalsKeepPublishOrder: messages published at one
// instant reach one subscription at one instant, and run in publish order —
// on the first attempt, and when every one of them was redelivered after a
// partition.
func TestSameInstantArrivalsKeepPublishOrder(t *testing.T) {
	for _, redelivered := range []bool{false, true} {
		name := "first-attempt"
		if redelivered {
			name = "redelivered"
		}
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv(1)
			net := brokerNet(t, env)
			if redelivered {
				if err := net.SetLinkState("main", "edge1", false); err != nil {
					t.Fatal(err)
				}
				env.At(1500*time.Millisecond, func() {
					if err := net.SetLinkState("main", "edge1", true); err != nil {
						t.Error(err)
					}
				})
			}
			pr, err := NewProvider(net, "main", redelivered)
			if err != nil {
				t.Fatal(err)
			}
			pr.CreateTopic("updates")
			var order []int
			var at []time.Duration
			if err := pr.Subscribe("updates", "edge1", "mdb", func(p *sim.Proc, m *Message) {
				order, at = append(order, m.Body.(int)), append(at, p.Now())
			}); err != nil {
				t.Fatal(err)
			}
			// Three writers started at t = 0 publish at one instant, once
			// the publish CPU is spent, in the order they were started.
			for i := 1; i <= 3; i++ {
				env.Spawn("writer", func(p *sim.Proc) {
					if err := pr.Publish(p, "main", "updates", i, 100); err != nil {
						t.Error(err)
					}
				})
			}
			env.RunAll()
			if !slices.Equal(order, []int{1, 2, 3}) {
				t.Fatalf("order = %v, want [1 2 3]", order)
			}
			if at[0] != at[1] || at[1] != at[2] {
				t.Fatalf("delivered at %v, want one instant", at)
			}
			if late := at[0] > time.Second; late != redelivered {
				t.Fatalf("delivered at %v; redelivered %t", at[0], redelivered)
			}
		})
	}
}

// TestWarmPublishAllocs: once the Provider holds delivery records and
// Messages and the MDB processes have returned Procs to reuse, a publish to
// two subscribers allocates nothing.
func TestWarmPublishAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	env := sim.NewEnv(1)
	defer env.Close()
	net := brokerNet(t, env)
	pr, err := NewProvider(net, "main", false)
	if err != nil {
		t.Fatal(err)
	}
	pr.CreateTopic("updates")
	for _, node := range []string{"edge1", "edge2"} {
		if err := pr.Subscribe("updates", node, "mdb-"+node, func(*sim.Proc, *Message) {}); err != nil {
			t.Fatal(err)
		}
	}
	var body any = "v"
	env.Spawn("writer", func(p *sim.Proc) {
		for next := time.Duration(0); ; {
			if err := pr.Publish(p, "main", "updates", body, 100); err != nil {
				t.Error(err)
			}
			next += time.Second
			p.Sleep(next - p.Now())
		}
	})
	// One call: one publish and both its deliveries.
	step := func() { env.Run(env.Now() + time.Second) }
	step()
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Fatalf("a warm publish to two subscribers allocates %.1f times, want 0", got)
	}
	reg := env.Metrics()
	if pub, del := reg.CounterValue("jms_published_total"), reg.CounterValue("jms_delivered_total"); del != 2*pub {
		t.Fatalf("%d publishes delivered %d times, want two each", pub, del)
	}
}

// releasedBody is a published body that records its releases and, like a
// recycled record, loses its contents to them.
type releasedBody struct {
	vals []int
	at   []time.Duration // virtual time of each Release
	env  *sim.Env
}

func (b *releasedBody) Release() {
	b.at = append(b.at, b.env.Now())
	clear(b.vals)
}

// TestMessageEndsOnce: a message and its body are released exactly once,
// after the last delivery ends, whether it was handled, dropped on a
// partitioned route, dead-lettered after the redelivery cap, or had no
// subscriber at all; a subscriber that runs on after a sibling delivery
// ended still reads the body intact.
func TestMessageEndsOnce(t *testing.T) {
	for _, c := range []struct {
		name      string
		subs      []string // subscriber nodes; edge2's subscriber outlives edge1's
		cut       string   // a node partitioned from the broker throughout
		redeliver bool
		endAt     time.Duration // no earlier than this, and after every subscriber returned
	}{
		{"handled", []string{"edge1", "edge2"}, "", false, 0},
		{"dropped", []string{"edge1", "edge2"}, "edge2", false, 0},
		{"dead-lettered", []string{"edge1", "edge2"}, "edge2", true, (redeliveryAttempts - 1) * redeliveryDelay},
		{"no subscribers", nil, "", false, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			net := brokerNet(t, env)
			pr, err := NewProvider(net, "main", c.redeliver)
			if err != nil {
				t.Fatal(err)
			}
			pr.CreateTopic("updates")
			body := &releasedBody{vals: []int{1, 2, 3}, env: env}
			var returned []time.Duration
			for _, node := range c.subs {
				if err := pr.Subscribe("updates", node, "mdb-"+node, func(p *sim.Proc, m *Message) {
					if node == "edge2" {
						p.Sleep(time.Second) // edge1's delivery ends meanwhile
					}
					if b := m.Body.(*releasedBody); len(b.at) != 0 || !slices.Equal(b.vals, []int{1, 2, 3}) {
						t.Errorf("%s read a body released %d times holding %v", node, len(b.at), b.vals)
					}
					returned = append(returned, p.Now())
				}); err != nil {
					t.Fatal(err)
				}
			}
			if c.cut != "" {
				if err := net.SetLinkState("main", c.cut, false); err != nil {
					t.Fatal(err)
				}
			}
			env.Spawn("writer", func(p *sim.Proc) {
				if err := pr.Publish(p, "main", "updates", body, 100); err != nil {
					t.Error(err)
				}
				if len(c.subs) == 0 && len(body.at) != 1 {
					t.Errorf("a message with no subscriber released %d times by the end of Publish, want 1", len(body.at))
				}
			})
			env.RunAll()
			if len(body.at) != 1 {
				t.Fatalf("the body was released %d times, want once", len(body.at))
			}
			end := slices.Max(append(returned, c.endAt))
			if body.at[0] < end {
				t.Errorf("released at %v, before the last delivery ended at %v", body.at[0], end)
			}
			if want := len(c.subs); c.cut != "" && len(returned) != want-1 || c.cut == "" && len(returned) != want {
				t.Errorf("%d subscribers returned", len(returned))
			}
			if m := pr.msgs.Reuse(); m == nil || m.Topic != "" || m.Body != nil {
				t.Errorf("the ended Message is %+v on the free list, want a cleared one", m)
			}
		})
	}
}
