package simnet

import (
	"reflect"
	"testing"
	"time"

	"wadeploy/internal/sim"
)

func TestHierarchyShape(t *testing.T) {
	for _, edges := range []int{1, 2, 3, 8, 16, 128} {
		env := sim.NewEnv(1)
		h, err := BuildHierarchy(env, DefaultHierarchySpec(edges))
		if err != nil {
			t.Fatalf("edges=%d: %v", edges, err)
		}
		if got := len(h.EdgeNames); got != edges {
			t.Fatalf("edges=%d: got %d edge names", edges, got)
		}
		wantHubs := (edges + 7) / 8
		if got := len(h.HubNames); got != wantHubs {
			t.Fatalf("edges=%d: got %d hubs, want %d", edges, got, wantHubs)
		}
		if got := len(h.ServerNodes()); got != edges+1 {
			t.Fatalf("edges=%d: got %d server nodes", edges, got)
		}
		// main + db + clients-main + hubs + edges + per-edge clients.
		wantNodes := 3 + wantHubs + 2*edges
		if got := len(h.Net.nodes); got != wantNodes {
			t.Fatalf("edges=%d: got %d nodes, want %d", edges, got, wantNodes)
		}
		// Every edge reaches main through its hub: backbone + metro one-way.
		spec := h.Spec
		wantLat := spec.Backbone.OneWay + spec.Metro.OneWay
		for _, e := range h.EdgeNames {
			lat, err := h.Net.Route(e, NodeMain).Latency()
			if err != nil {
				t.Fatalf("edges=%d: %s unreachable: %v", edges, e, err)
			}
			if lat != wantLat {
				t.Fatalf("edges=%d: %s->main latency %v, want %v", edges, e, lat, wantLat)
			}
			if !h.Net.WideArea(e, NodeMain) {
				t.Fatalf("edges=%d: %s->main should classify wide-area", edges, e)
			}
			clients := h.ClientNode(e)
			if clients == "" {
				t.Fatalf("edges=%d: %s has no client group", edges, e)
			}
			if h.Net.WideArea(clients, e) {
				t.Fatalf("edges=%d: %s->%s should be LAN", edges, clients, e)
			}
		}
		if h.ClientNode(NodeMain) != NodeClientsMain {
			t.Fatalf("edges=%d: main client group missing", edges)
		}
	}
}

func TestHierarchyTwoEdgesSameHubLatency(t *testing.T) {
	env := sim.NewEnv(1)
	h, err := BuildHierarchy(env, HierarchySpec{Edges: 4, Hubs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Edges 0 and 2 share hub00 (round-robin over 2 hubs): their distance
	// is two metro hops, never touching the backbone.
	lat, err := h.Net.Route(EdgeName(0), EdgeName(2)).Latency()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * h.Spec.Metro.OneWay; lat != want {
		t.Fatalf("same-hub edge latency %v, want %v", lat, want)
	}
	// Edges 0 and 1 sit under different hubs: metro + backbone + backbone + metro.
	lat, err = h.Net.Route(EdgeName(0), EdgeName(1)).Latency()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*h.Spec.Metro.OneWay + 2*h.Spec.Backbone.OneWay; lat != want {
		t.Fatalf("cross-hub edge latency %v, want %v", lat, want)
	}
}

func TestHubCrashPartitionsSubtree(t *testing.T) {
	env := sim.NewEnv(1)
	h, err := BuildHierarchy(env, HierarchySpec{Edges: 8, Hubs: 2})
	if err != nil {
		t.Fatal(err)
	}
	hub := h.HubNames[0]
	sub := h.Subtree(hub)
	if len(sub) != 4 {
		t.Fatalf("subtree of %s has %d edges, want 4", hub, len(sub))
	}
	if err := h.Net.SetNodeState(hub, false); err != nil {
		t.Fatal(err)
	}
	for _, e := range sub {
		if h.Net.Route(e, NodeMain).Reachable() {
			t.Fatalf("%s still reachable after %s crash", e, hub)
		}
		// Local clients keep their edge.
		if !h.Net.Route(h.ClientNode(e), e).Reachable() {
			t.Fatalf("%s lost its local clients after %s crash", e, hub)
		}
	}
	// The other subtree is untouched.
	for _, e := range h.Subtree(h.HubNames[1]) {
		if !h.Net.Route(e, NodeMain).Reachable() {
			t.Fatalf("%s unreachable though its hub is up", e)
		}
	}
	// Restart restores the whole subtree.
	if err := h.Net.SetNodeState(hub, true); err != nil {
		t.Fatal(err)
	}
	for _, e := range sub {
		if !h.Net.Route(e, NodeMain).Reachable() {
			t.Fatalf("%s unreachable after %s restart", e, hub)
		}
	}
}

func TestRedundantUplinkReroutesAroundHubCrash(t *testing.T) {
	env := sim.NewEnv(1)
	h, err := BuildHierarchy(env, HierarchySpec{Edges: 8, Hubs: 2, RedundantUplinks: true})
	if err != nil {
		t.Fatal(err)
	}
	hub := h.HubNames[0]
	sub := h.Subtree(hub)
	// Before the crash, the primary (shorter) uplink carries the traffic.
	primary := h.Spec.Backbone.OneWay + h.Spec.Metro.OneWay
	for _, e := range sub {
		lat, err := h.Net.Route(e, NodeMain).Latency()
		if err != nil {
			t.Fatal(err)
		}
		if lat != primary {
			t.Fatalf("%s pre-crash latency %v, want primary %v", e, lat, primary)
		}
	}
	if err := h.Net.SetNodeState(hub, false); err != nil {
		t.Fatal(err)
	}
	// After the crash, every subtree edge reroutes over its backup uplink:
	// the redundant metro hop (1.25x) plus the backbone.
	backup := h.Spec.Backbone.OneWay + h.Spec.Metro.OneWay + h.Spec.Metro.OneWay/4
	for _, e := range sub {
		if b := h.BackupHub(e); b == "" {
			t.Fatalf("%s has no backup hub", e)
		}
		lat, err := h.Net.Route(e, NodeMain).Latency()
		if err != nil {
			t.Fatalf("%s unreachable despite redundant uplink: %v", e, err)
		}
		if lat != backup {
			t.Fatalf("%s post-crash latency %v, want backup-path %v", e, lat, backup)
		}
	}
}

func TestHierarchySpecValidation(t *testing.T) {
	env := sim.NewEnv(1)
	if _, err := BuildHierarchy(env, HierarchySpec{Edges: -1}); err == nil {
		t.Fatal("expected error for a negative edge count")
	}
	// More hubs than edges clamps rather than fails.
	h, err := BuildHierarchy(sim.NewEnv(1), HierarchySpec{Edges: 2, Hubs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.HubNames) != 2 {
		t.Fatalf("hub count not clamped: %d", len(h.HubNames))
	}
}

// TestZeroSpecIsPaperStar pins the collapse of the paper's testbed into the
// hierarchy builder: the zero HierarchySpec yields exactly Fig. 2's node set,
// link set and link orientation (the a>b order names the per-link metrics, so
// it is part of the byte-identical snapshot contract), and the router is a hub
// whose subtree is both edges — which is what lets hub-level fault schedules
// run on the star.
func TestZeroSpecIsPaperStar(t *testing.T) {
	h, err := BuildHierarchy(sim.NewEnv(1), HierarchySpec{})
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := []string{NodeRouter, NodeMain, NodeEdge1, NodeEdge2, NodeDB,
		NodeClientsMain, NodeClientsEdge1, NodeClientsEdge2}
	if got := len(h.Net.nodes); got != len(wantNodes) {
		t.Fatalf("nodes = %d, want %d", got, len(wantNodes))
	}
	for _, id := range wantNodes {
		if h.Net.Node(id) == nil {
			t.Errorf("node %s missing", id)
		}
	}
	wan, lan := LinkClass{WANOneWay / 2, WANBps}, LinkClass{LANOneWay, LANBps}
	wantLinks := map[string]LinkClass{
		NodeMain + ">" + NodeRouter:        wan,
		NodeEdge1 + ">" + NodeRouter:       wan,
		NodeEdge2 + ">" + NodeRouter:       wan,
		NodeDB + ">" + NodeMain:            lan,
		NodeClientsMain + ">" + NodeMain:   lan,
		NodeClientsEdge1 + ">" + NodeEdge1: lan,
		NodeClientsEdge2 + ">" + NodeEdge2: lan,
	}
	if got := len(h.Net.links); got != len(wantLinks) {
		t.Fatalf("links = %d, want %d", got, len(wantLinks))
	}
	for _, l := range h.Net.links {
		want, ok := wantLinks[l.A+">"+l.B]
		if !ok {
			t.Errorf("unexpected link %s>%s", l.A, l.B)
		} else if got := (LinkClass{l.Latency, l.Bps}); got != want {
			t.Errorf("link %s>%s = %+v, want %+v", l.A, l.B, got, want)
		}
	}
	if got := h.ServerNodes(); !reflect.DeepEqual(got, []string{NodeMain, NodeEdge1, NodeEdge2}) {
		t.Errorf("server nodes = %v", got)
	}
	if got := (HierarchySpec{}).ServerNodes(); !reflect.DeepEqual(got, h.ServerNodes()) {
		t.Errorf("spec server nodes = %v, built %v", got, h.ServerNodes())
	}
	if !reflect.DeepEqual(h.HubNames, []string{NodeRouter}) {
		t.Errorf("hubs = %v", h.HubNames)
	}
	if got := h.Subtree(NodeRouter); !reflect.DeepEqual(got, []string{NodeEdge1, NodeEdge2}) {
		t.Errorf("router subtree = %v", got)
	}
	for server, clients := range map[string]string{
		NodeMain: NodeClientsMain, NodeEdge1: NodeClientsEdge1, NodeEdge2: NodeClientsEdge2,
	} {
		if got := h.ClientNode(server); got != clients {
			t.Errorf("clients of %s = %q, want %q", server, got, clients)
		}
	}
}

// TestStarLatencySweepSpec: a WAN-latency sweep point is the zero spec with
// both router legs set, and keeps the paper's names.
func TestStarLatencySweepSpec(t *testing.T) {
	leg := LinkClass{OneWay: 20 * time.Millisecond}
	h, err := BuildHierarchy(sim.NewEnv(1), HierarchySpec{Backbone: leg, Metro: leg})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{NodeMain, NodeEdge1}, {NodeEdge1, NodeEdge2}} {
		if lat, err := h.Net.Route(pair[0], pair[1]).Latency(); err != nil || lat != 40*time.Millisecond {
			t.Errorf("%s->%s latency %v, %v; want 40ms", pair[0], pair[1], lat, err)
		}
	}
	if h.Spec.Backbone.Bps != WANBps || h.Spec.Metro.Bps != WANBps {
		t.Errorf("star legs default to %v/%v B/s, want the paper's WAN bandwidth", h.Spec.Backbone.Bps, h.Spec.Metro.Bps)
	}
	// The resolved spec rebuilds the same star; reshaped, it is an ordinary
	// hierarchy with the numbered names.
	again, err := BuildHierarchy(sim.NewEnv(1), h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.EdgeNames, h.EdgeNames) {
		t.Errorf("rebuilt from resolved spec: edges %v, want %v", again.EdgeNames, h.EdgeNames)
	}
	grown := h.Spec
	grown.Edges = 3
	if got := grown.ServerNodes(); !reflect.DeepEqual(got, []string{NodeMain, EdgeName(0), EdgeName(1), EdgeName(2)}) {
		t.Errorf("reshaped star's servers = %v", got)
	}
}
