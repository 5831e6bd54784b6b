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
			opts := DefaultOptions
			if redelivered {
				opts = redeliveryOpts(5, time.Second)
				if err := net.SetLinkState("main", "edge1", false); err != nil {
					t.Fatal(err)
				}
				env.At(1500*time.Millisecond, func() {
					if err := net.SetLinkState("main", "edge1", true); err != nil {
						t.Error(err)
					}
				})
			}
			opts.PublishCPU = 0 // every publish at t = 0
			pr, err := NewProvider(net, "main", opts)
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
			env.Spawn("writer", func(p *sim.Proc) {
				for i := 1; i <= 3; i++ {
					if err := pr.Publish(p, "main", "updates", i, 100); err != nil {
						t.Error(err)
					}
				}
			})
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

// TestWarmPublishAllocs: once the Provider holds delivery records, a publish
// to two subscribers allocates its Message and one process per delivery.
func TestWarmPublishAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	env := sim.NewEnv(1)
	defer env.Close()
	net := brokerNet(t, env)
	pr, err := NewProvider(net, "main", DefaultOptions)
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
	if got := testing.AllocsPerRun(50, step); got != 3 {
		t.Fatalf("a warm publish to two subscribers allocates %.1f times, want 3: the Message and two processes", got)
	}
	reg := env.Metrics()
	if pub, del := reg.CounterValue("jms_published_total"), reg.CounterValue("jms_delivered_total"); del != 2*pub {
		t.Fatalf("%d publishes delivered %d times, want two each", pub, del)
	}
}
