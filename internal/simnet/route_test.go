package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wadeploy/internal/race"
	"wadeploy/internal/sim"
)

// referencePath is the name-keyed Dijkstra the ordinal one replaced, kept as
// the oracle: settle the unreached node with the smallest distance (ties to
// the smaller ID), improve a neighbour only on a strictly shorter distance,
// visit a node's links in AddLink order.
func referencePath(n *Network, a, b string) ([]*Link, bool) {
	if a == b {
		return nil, true
	}
	if na, ok := n.nodes[a]; !ok || na.down {
		return nil, false
	}
	if nb, ok := n.nodes[b]; !ok || nb.down {
		return nil, false
	}
	adj := map[string][]*Link{}
	for _, l := range n.links {
		adj[l.A] = append(adj[l.A], l)
		adj[l.B] = append(adj[l.B], l)
	}
	type entry struct {
		dist time.Duration
		via  *Link
		prev string
	}
	dist := map[string]entry{a: {}}
	visited := map[string]bool{}
	for {
		cur, best := "", time.Duration(-1)
		for id, e := range dist {
			if visited[id] {
				continue
			}
			if best < 0 || e.dist < best || (e.dist == best && id < cur) {
				cur, best = id, e.dist
			}
		}
		if cur == "" {
			return nil, false
		}
		if cur == b {
			break
		}
		visited[cur] = true
		for _, l := range adj[cur] {
			if l.down {
				continue
			}
			next := l.B
			if next == cur {
				next = l.A
			}
			if n.nodes[next].down {
				continue
			}
			nd := dist[cur].dist + l.effLatency()
			if e, ok := dist[next]; !ok || nd < e.dist {
				dist[next] = entry{dist: nd, via: l, prev: cur}
			}
		}
	}
	var rev []*Link
	for at := b; at != a; at = dist[at].prev {
		rev = append(rev, dist[at].via)
	}
	p := make([]*Link, len(rev))
	for i := range rev {
		p[i] = rev[len(rev)-1-i]
	}
	return p, true
}

// randomNetwork builds a connected graph whose node IDs are added in shuffled
// order (so ordinals and ID order disagree) and whose latencies come from a
// three-value set (so equal-length paths, and the tie-break, are common).
func randomNetwork(t *testing.T, rng *rand.Rand, nodes int) *Network {
	t.Helper()
	n := New(sim.NewEnv(1))
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%02d", i)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		if _, err := n.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b string) {
		if a == b || n.HasLink(a, b) {
			return
		}
		lat := time.Duration(1+rng.Intn(3)) * time.Millisecond
		if _, err := n.AddLink(a, b, lat, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < nodes; i++ {
		link(ids[i], ids[rng.Intn(i)]) // a spanning tree keeps it connected
	}
	for i := 0; i < nodes; i++ {
		link(ids[rng.Intn(nodes)], ids[rng.Intn(nodes)])
	}
	return n
}

// perturb changes one link's or node's state or quality at random.
func perturb(t *testing.T, rng *rand.Rand, n *Network) {
	t.Helper()
	l := n.links[rng.Intn(len(n.links))]
	var err error
	switch rng.Intn(4) {
	case 0:
		err = n.SetLinkState(l.A, l.B, l.down)
	case 1:
		err = n.SetLinkQuality(l.A, l.B, LinkQuality{LatencyMult: float64(rng.Intn(4))})
	case 2:
		node := n.byOrd[rng.Intn(len(n.byOrd))]
		err = n.SetNodeState(node.ID, node.down)
	default:
		var a, b *Node
		for a == b {
			a, b = n.byOrd[rng.Intn(len(n.byOrd))], n.byOrd[rng.Intn(len(n.byOrd))]
		}
		if !n.HasLink(a.ID, b.ID) {
			_, err = n.AddLink(a.ID, b.ID, time.Duration(1+rng.Intn(3))*time.Millisecond, 1e6)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestRouteMatchesReference pins the ordinal Dijkstra to the name-keyed one
// on every ordered pair of random graphs, through a sequence of link, node
// and quality changes, with every route handle held across the changes: a
// held route must re-resolve to exactly the path a fresh computation takes,
// link for link, and cross each link in the direction of travel.
func TestRouteMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(t, rng, 6+rng.Intn(20))
		var held []*Route
		for _, a := range n.byOrd {
			for _, b := range n.byOrd {
				held = append(held, n.Route(a.ID, b.ID))
			}
		}
		held = append(held, n.Route("nowhere", n.byOrd[0].ID), n.Route(n.byOrd[0].ID, "nowhere"))
		for step := 0; step < 8; step++ {
			for _, r := range held {
				want, ok := referencePath(n, r.from, r.to)
				if r.Reachable() != ok {
					t.Fatalf("seed %d step %d: %s->%s reachable = %t, reference %t", seed, step, r.from, r.to, !ok, ok)
				}
				if !ok {
					if _, err := r.Delay(1); err == nil {
						t.Fatalf("seed %d step %d: %s->%s delivered over no path", seed, step, r.from, r.to)
					}
					continue
				}
				var lat time.Duration
				at := r.from
				for i, h := range r.hops {
					if i >= len(want) || h.l != want[i] {
						t.Fatalf("seed %d step %d: %s->%s hop %d differs from the reference path", seed, step, r.from, r.to, i)
					}
					from, to := h.l.A, h.l.B
					if h.dir == 1 {
						from, to = to, from
					}
					if from != at {
						t.Fatalf("seed %d step %d: %s->%s hop %d leaves %s, want %s", seed, step, r.from, r.to, i, from, at)
					}
					at = to
					lat += h.l.effLatency()
				}
				if len(r.hops) != len(want) {
					t.Fatalf("seed %d step %d: %s->%s has %d hops, reference %d", seed, step, r.from, r.to, len(r.hops), len(want))
				}
				if got, err := r.Latency(); err != nil || got != lat {
					t.Fatalf("seed %d step %d: %s->%s latency %v (%v), want %v", seed, step, r.from, r.to, got, err, lat)
				}
			}
			perturb(t, rng, n)
		}
	}
}

// TestHeldRouteFollowsChanges holds one route across a link failure, a node
// crash and their recovery: it reroutes, becomes unreachable and returns to
// the original path without being asked for again.
func TestHeldRouteFollowsChanges(t *testing.T) {
	n := buildTriangle(t, sim.NewEnv(1))
	r := n.Route("a", "c")
	if n.Route("a", "c") != r {
		t.Fatal("Route returned a second handle for the same pair")
	}
	check := func(what string, want time.Duration) {
		t.Helper()
		got, err := r.Latency()
		if err != nil || got != want {
			t.Fatalf("%s: latency a->c = %v (%v), want %v", what, got, err, want)
		}
	}
	check("nominal", 20*time.Millisecond)
	if err := n.SetLinkState("a", "b", false); err != nil {
		t.Fatal(err)
	}
	check("a-b down", 50*time.Millisecond)
	if err := n.SetNodeState("c", false); err != nil {
		t.Fatal(err)
	}
	if r.Reachable() || !r.WideArea() {
		t.Fatal("route to a crashed node is reachable or not wide")
	}
	var ue *UnreachableError
	if _, err := r.Delay(1); !errors.As(err, &ue) || ue.From != "a" || ue.To != "c" {
		t.Fatalf("Delay to a crashed node: %v", err)
	}
	if err := n.SetNodeState("c", true); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkState("a", "b", true); err != nil {
		t.Fatal(err)
	}
	check("recovered", 20*time.Millisecond)
}

// TestHeldRouteAllocs: a transfer over a held route allocates nothing, and
// neither does resolving it again after a state change — the shortest-path
// scratch and the hop slice are reused.
func TestHeldRouteAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	env := sim.NewEnv(1)
	h, err := BuildHierarchy(env, DefaultHierarchySpec(16))
	if err != nil {
		t.Fatal(err)
	}
	r := h.Net.Route(h.ClientNode(h.EdgeNames[3]), NodeMain)
	for i := 0; i < 100; i++ {
		if _, err := r.Delay(0); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := r.Delay(0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Delay over a held route allocates %.2f per call; want 0", avg)
	}
	hub := h.parent[h.EdgeNames[3]]
	mult := 1.0
	if avg := testing.AllocsPerRun(100, func() {
		mult = 3 - mult // alternate 1x and 2x: the route resolves every time
		if err := h.Net.SetLinkQuality(hub, NodeMain, LinkQuality{LatencyMult: mult}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Latency(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("re-resolving a held route allocates %.2f per change; want 0", avg)
	}
}
