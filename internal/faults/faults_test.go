package faults

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
)

func testNet(t *testing.T, seed int64) *simnet.Network {
	t.Helper()
	env := sim.NewEnv(seed)
	net, err := simnet.PaperTopology(env)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	return net
}

func TestParseRoundTrip(t *testing.T) {
	s := Canonical(30*time.Second, 4*time.Minute)
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got.Name != s.Name || len(got.Events) != len(s.Events) {
		t.Fatalf("round trip lost events: got %d want %d", len(got.Events), len(s.Events))
	}
	if got.Window != s.Window {
		t.Fatalf("round trip window = %v, want %v", got.Window, s.Window)
	}
	for i := range s.Events {
		if got.Events[i] != s.Events[i] {
			t.Errorf("event %d: got %+v want %+v", i, got.Events[i], s.Events[i])
		}
	}
}

func TestParseRejectsBadSchedules(t *testing.T) {
	cases := map[string]string{
		"unknown kind":  `{"events":[{"kind":"meteor","at_ms":0,"duration_ms":1}]}`,
		"unknown field": `{"events":[{"kind":"link-down","link":["a","b"],"at_ms":0,"duration_ms":1,"bogus":1}]}`,
		"one endpoint":  `{"events":[{"kind":"link-down","link":["a"],"at_ms":0,"duration_ms":1}]}`,
		"no duration":   `{"events":[{"kind":"link-down","link":["a","b"],"at_ms":0}]}`,
		"drop range":    `{"events":[{"kind":"drop","link":["a","b"],"at_ms":0,"duration_ms":1,"drop_prob":1.5}]}`,
		"flap cycles":   `{"events":[{"kind":"link-flap","link":["a","b"],"at_ms":0,"duration_ms":1}]}`,
		"no node":       `{"events":[{"kind":"node-down","at_ms":0,"duration_ms":1}]}`,
		"bad window":    `{"window_ms":[5,1],"events":[]}`,
		// 18446744074709 ms wraps to an event at 999.4 ms.
		"at_ms wraps": `{"events":[{"kind":"node-down","node":"edge1","at_ms":18446744074709,"duration_ms":1}]}`,
		// The revert would land before the fault, at a negative time.
		"end overflows": `{"events":[{"kind":"node-down","node":"edge1","at_ms":1000,"duration_ms":9223372036854}]}`,
		// Two billion cycles over 1 ms: a 0 ns flap period.
		"flap period": `{"events":[{"kind":"link-flap","link":["a","b"],"at_ms":0,"duration_ms":1,"cycles":2000000000}]}`,
	}
	for name, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("%s: parse accepted invalid schedule", name)
		}
	}
}

func TestArmRejectsUnknownTopologyElements(t *testing.T) {
	net := testNet(t, 1)
	bad := &Schedule{Events: []Event{{Kind: LinkDown, A: "edge1", B: "nowhere", At: 0, Duration: time.Second}}}
	if err := Arm(net, bad, 1); err == nil {
		t.Fatal("Arm accepted a schedule naming a nonexistent link")
	}
	bad = &Schedule{Events: []Event{{Kind: NodeDown, Node: "nowhere", At: 0, Duration: time.Second}}}
	if err := Arm(net, bad, 1); err == nil {
		t.Fatal("Arm accepted a schedule naming a nonexistent node")
	}
}

func TestArmDrivesLinkAndNodeState(t *testing.T) {
	net := testNet(t, 7)
	env := net.Env()
	s := &Schedule{Events: []Event{
		{Kind: LinkDown, A: simnet.NodeEdge1, B: simnet.NodeRouter, At: 1 * time.Second, Duration: 2 * time.Second},
		{Kind: NodeDown, Node: simnet.NodeEdge2, At: 2 * time.Second, Duration: 2 * time.Second},
		{Kind: Latency, A: simnet.NodeEdge2, B: simnet.NodeRouter, At: 5 * time.Second, Duration: time.Second, LatencyMult: 4},
	}}
	if err := Arm(net, s, 7); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	type probe struct {
		at          time.Duration
		edge1OK     bool
		edge2OK     bool
		edge2OneWay time.Duration
	}
	base, err := net.Route(simnet.NodeMain, simnet.NodeEdge2).Latency()
	if err != nil {
		t.Fatalf("latency: %v", err)
	}
	probes := []probe{
		{at: 500 * time.Millisecond, edge1OK: true, edge2OK: true, edge2OneWay: base},
		{at: 1500 * time.Millisecond, edge1OK: false, edge2OK: true, edge2OneWay: base},
		{at: 2500 * time.Millisecond, edge1OK: false, edge2OK: false},
		{at: 3500 * time.Millisecond, edge1OK: true, edge2OK: false},
		{at: 4500 * time.Millisecond, edge1OK: true, edge2OK: true, edge2OneWay: base},
		// 4x multiplier on the edge2-router leg only (half the one-way path).
		{at: 5500 * time.Millisecond, edge1OK: true, edge2OK: true, edge2OneWay: base + 3*simnet.WANOneWay/2},
		{at: 6500 * time.Millisecond, edge1OK: true, edge2OK: true, edge2OneWay: base},
	}
	for _, pr := range probes {
		pr := pr
		env.At(pr.at, func() {
			if got := net.Route(simnet.NodeMain, simnet.NodeEdge1).Reachable(); got != pr.edge1OK {
				t.Errorf("t=%v: edge1 reachable = %v, want %v", pr.at, got, pr.edge1OK)
			}
			if got := net.Route(simnet.NodeMain, simnet.NodeEdge2).Reachable(); got != pr.edge2OK {
				t.Errorf("t=%v: edge2 reachable = %v, want %v", pr.at, got, pr.edge2OK)
			}
			if pr.edge2OK && pr.edge2OneWay > 0 {
				lat, err := net.Route(simnet.NodeMain, simnet.NodeEdge2).Latency()
				if err != nil {
					t.Errorf("t=%v: latency: %v", pr.at, err)
				} else if lat != pr.edge2OneWay {
					t.Errorf("t=%v: edge2 one-way = %v, want %v", pr.at, lat, pr.edge2OneWay)
				}
			}
		})
	}
	env.Run(8 * time.Second)
	env.Close()
}

func TestDropProbabilityIsDeterministic(t *testing.T) {
	run := func() (dropped, delivered int) {
		net := testNet(t, 42)
		env := net.Env()
		s := &Schedule{Events: []Event{
			{Kind: Drop, A: simnet.NodeEdge1, B: simnet.NodeRouter, At: 0, Duration: time.Minute, DropProb: 0.3},
		}}
		if err := Arm(net, s, 42); err != nil {
			t.Fatalf("Arm: %v", err)
		}
		for i := 0; i < 200; i++ {
			at := time.Duration(i) * 100 * time.Millisecond
			env.At(at, func() {
				_, err := net.Route(simnet.NodeMain, simnet.NodeEdge1).Delay(1000)
				var de *simnet.DroppedError
				switch {
				case err == nil:
					delivered++
				case errors.As(err, &de):
					dropped++
				default:
					t.Errorf("unexpected error: %v", err)
				}
			})
		}
		env.Run(time.Minute)
		env.Close()
		return dropped, delivered
	}
	d1, ok1 := run()
	d2, ok2 := run()
	if d1 == 0 || ok1 == 0 {
		t.Fatalf("want a mix of drops and deliveries, got %d dropped / %d delivered", d1, ok1)
	}
	if d1 != d2 || ok1 != ok2 {
		t.Fatalf("drop pattern not deterministic: %d/%d vs %d/%d", d1, ok1, d2, ok2)
	}
}

func TestFlapEndsUp(t *testing.T) {
	net := testNet(t, 3)
	env := net.Env()
	s := &Schedule{Events: []Event{
		{Kind: LinkFlap, A: simnet.NodeEdge1, B: simnet.NodeRouter, At: time.Second, Duration: 4 * time.Second, Cycles: 4},
	}}
	if err := Arm(net, s, 3); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	transitions := 0
	last := true
	for i := 0; i < 24; i++ {
		at := time.Duration(i) * 250 * time.Millisecond
		env.At(at, func() {
			up := net.Route(simnet.NodeMain, simnet.NodeEdge1).Reachable()
			if up != last {
				transitions++
				last = up
			}
		})
	}
	env.Run(6 * time.Second)
	env.Close()
	if !last {
		t.Fatal("link did not end up after flapping")
	}
	if transitions < 6 {
		t.Fatalf("saw %d up/down transitions, want >= 6 for 4 cycles", transitions)
	}
}

// The paper's star is a hierarchy whose one hub is the router, so the
// hub-level schedules apply to it: partitioning the router's subtree cuts
// both edges off from main for exactly the window, and leaves each edge's
// own clients connected.
func TestSubtreePartitionOnPaperStar(t *testing.T) {
	env := sim.NewEnv(3)
	h, err := simnet.BuildHierarchy(env, simnet.HierarchySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Subtree(simnet.NodeRouter); len(got) != 2 {
		t.Fatalf("router subtree = %v, want both edges", got)
	}
	s := SubtreePartition(h, simnet.NodeRouter, time.Second, 2*time.Second)
	if err := Arm(h.Net, s, 3); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	for at, up := range map[time.Duration]bool{
		500 * time.Millisecond: true, 1500 * time.Millisecond: false,
		2500 * time.Millisecond: false, 3500 * time.Millisecond: true,
	} {
		at, up := at, up
		env.At(at, func() {
			for _, edge := range h.Subtree(simnet.NodeRouter) {
				if got := h.Net.Route(simnet.NodeMain, edge).Reachable(); got != up {
					t.Errorf("t=%v: %s reachable from main = %v, want %v", at, edge, got, up)
				}
				if !h.Net.Route(h.ClientNode(edge), edge).Reachable() {
					t.Errorf("t=%v: %s lost its local clients", at, edge)
				}
			}
		})
	}
	env.Run(4 * time.Second)
	env.Close()
}

// FuzzParseSchedule holds the schedule parser to its contract on any input
// (`-faults FILE` reads a user's file): an accepted schedule is valid, every
// event starts at a non-negative time and ends after it starts, and the
// schedule survives a MarshalJSON round trip unchanged. The seed corpus is
// under testdata/fuzz/FuzzParseSchedule.
func FuzzParseSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted schedule fails Validate: %v", err)
		}
		for i, e := range s.Events {
			if e.At < 0 || e.At+e.Duration <= e.At {
				t.Fatalf("event %d spans [%v, %v+%v)", i, e.At, e.At, e.Duration)
			}
		}
		out, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", out, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip changed the schedule:\n got %+v\nwant %+v", again, s)
		}
	})
}
