// Package simnet models a wide-area network topology on top of the sim
// engine: nodes with CPU resources, links with one-way propagation latency,
// bandwidth and per-direction serialization, and shortest-path routing.
//
// It substitutes for the paper's physical testbed, in which three application
// servers, a database server and nine client machines were connected through
// a Click software router whose traffic-shaping elements imposed 100 ms
// each-way latency on WAN links with 100 Mbit/s combined bandwidth (Fig. 2).
// The quantities the paper's experiments depend on — round-trip times between
// client groups and servers, and transfer delays for request/response
// payloads — are reproduced by Delay/Transfer/Send below.
//
// A path is a Route, a handle on one (from, to) pair that the caller keeps
// (an RMI stub, a web client's connection, a server's JDBC link): resolved
// by Dijkstra over node ordinals on first use and again only after the
// network changes, it moves a message without a lookup by name.
package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
)

// ErrUnreachable is wrapped by errors returned when no live path exists
// between two nodes (for example after a link failure).
type UnreachableError struct {
	From, To string
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("simnet: no route from %s to %s", e.From, e.To)
}

// DroppedError is returned when a message is lost to a lossy link (a
// non-zero DropProb in the link's quality). Unlike UnreachableError the
// sender has no way to know the message is gone, so callers that model
// request/response protocols should charge a timeout before reacting.
type DroppedError struct {
	From, To string
}

func (e *DroppedError) Error() string {
	return fmt.Sprintf("simnet: message from %s to %s dropped", e.From, e.To)
}

// LinkQuality describes degraded service on a link. The zero value is
// nominal quality (base latency, no jitter, no loss).
type LinkQuality struct {
	// LatencyMult scales the link's one-way propagation delay when > 0
	// (1 is nominal; 5 models a congested WAN path). It also scales the
	// link's routing weight, so a sufficiently degraded link is routed
	// around when an alternate path exists.
	LatencyMult float64
	// JitterFrac adds a uniformly distributed extra delay in
	// [0, JitterFrac × effective latency) per message. Requires
	// EnableFaults; ignored otherwise.
	JitterFrac float64
	// DropProb is the per-message probability that the link loses the
	// message. Requires EnableFaults; ignored otherwise.
	DropProb float64
}

// Node is a machine in the topology with a limited-slot CPU.
type Node struct {
	ID  string
	CPU *sim.Resource

	down  bool
	ord   int32   // position in Network.byOrd
	links []*Link // incident links, in AddLink order
}

// Link is a bidirectional connection between two nodes.
type Link struct {
	A, B    string
	Latency time.Duration // one-way propagation delay
	Bps     float64       // bandwidth in bytes per second

	ends    [2]*Node // the nodes named A and B
	down    bool
	quality LinkQuality
	// busyUntil tracks per-direction transmitter occupancy: [0] is A->B,
	// [1] is B->A. A transfer must wait for the transmitter to drain
	// before its serialization delay starts.
	busyUntil [2]time.Duration

	// Per-direction instruments, registered at AddLink time so the Delay
	// hot path only touches pre-resolved handles.
	mBytes [2]*metrics.Counter
	mQueue [2]*metrics.Histogram
}

// Network is a set of nodes and links with latency-shortest-path routing.
type Network struct {
	env   *sim.Env
	nodes map[string]*Node
	byOrd []*Node
	links []*Link

	// epoch advances on every change that can move a shortest path (a node
	// or link added, a link or node state or quality changed); a Route
	// resolved at an older epoch resolves again on its next use.
	epoch  uint64
	routes map[[2]string]*Route // one shared handle per (from, to) asked for
	sp     shortestPaths

	mMsgs     *metrics.Counter
	mBytes    *metrics.Counter
	mDelay    *metrics.Histogram
	mLinks    *metrics.Gauge
	linkBytes *metrics.CounterVec
	linkQueue *metrics.HistogramVec

	// Fault-injection state, armed by EnableFaults. frng is a dedicated
	// RNG for loss and jitter draws so fault randomness never perturbs
	// the workload stream (env.Rand); mDropped is registered lazily so
	// fault-free runs export byte-identical metric snapshots.
	frng     *rand.Rand
	mDropped *metrics.Counter
}

// New returns an empty network bound to env.
func New(env *sim.Env) *Network {
	reg := env.Metrics()
	return &Network{
		env:       env,
		nodes:     make(map[string]*Node),
		epoch:     1,
		routes:    make(map[[2]string]*Route),
		mMsgs:     reg.Counter("simnet_messages_total"),
		mBytes:    reg.Counter("simnet_bytes_total"),
		mDelay:    reg.Histogram("simnet_delivery_delay_ns"),
		mLinks:    reg.Gauge("simnet_links"),
		linkBytes: reg.CounterVec("simnet_link_bytes_total", "link"),
		linkQueue: reg.HistogramVec("simnet_link_queue_wait_ns", "link"),
	}
}

// Env returns the simulation environment the network runs in.
func (n *Network) Env() *sim.Env { return n.env }

// AddNode creates a node with the given CPU slot count and returns it.
// Adding a node with a duplicate ID returns an error.
func (n *Network) AddNode(id string, cpuSlots int) (*Node, error) {
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("simnet: duplicate node %q", id)
	}
	node := &Node{ID: id, CPU: sim.NewResource(n.env, cpuSlots), ord: int32(len(n.byOrd))}
	n.nodes[id] = node
	n.byOrd = append(n.byOrd, node)
	n.epoch++ // a route to a name that did not exist yet resolves again
	return node, nil
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id string) *Node { return n.nodes[id] }

// findLink returns the a-b link (in either order), or nil.
func (n *Network) findLink(a, b string) *Link {
	for _, l := range n.links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return l
		}
	}
	return nil
}

// HasLink reports whether a link between a and b exists (in either order).
func (n *Network) HasLink(a, b string) bool { return n.findLink(a, b) != nil }

// AddLink connects a and b with the given one-way latency and bandwidth
// (bytes per second). Both endpoints must exist.
func (n *Network) AddLink(a, b string, latency time.Duration, bps float64) (*Link, error) {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil {
		return nil, fmt.Errorf("simnet: link endpoint %q does not exist", a)
	}
	if nb == nil {
		return nil, fmt.Errorf("simnet: link endpoint %q does not exist", b)
	}
	if bps <= 0 {
		return nil, fmt.Errorf("simnet: link %s-%s bandwidth must be positive", a, b)
	}
	l := &Link{A: a, B: b, Latency: latency, Bps: bps, ends: [2]*Node{na, nb}}
	ab, ba := a+">"+b, b+">"+a
	l.mBytes[0] = n.linkBytes.With(ab)
	l.mBytes[1] = n.linkBytes.With(ba)
	l.mQueue[0] = n.linkQueue.With(ab)
	l.mQueue[1] = n.linkQueue.With(ba)
	n.mLinks.Add(1)
	n.links = append(n.links, l)
	na.links = append(na.links, l)
	nb.links = append(nb.links, l)
	n.epoch++
	return l, nil
}

// SetLinkState marks the a-b link up or down. Transfers across a down link
// fail with an UnreachableError (unless another path exists).
func (n *Network) SetLinkState(a, b string, up bool) error {
	l := n.findLink(a, b)
	if l == nil {
		return fmt.Errorf("simnet: no link %s-%s", a, b)
	}
	l.down = !up
	n.epoch++
	return nil
}

// faultSeedSalt decorrelates the fault RNG stream from the env seed itself;
// the derivation (seed XOR salt) is part of the reproducibility contract and
// documented in DESIGN.md §7.
const faultSeedSalt = 0x66617473 // "fats"

// EnableFaults arms the network for probabilistic fault injection: loss and
// jitter draws come from a dedicated RNG derived from seed (pass the env
// seed; the stream is salted so it never collides with env.Rand), and the
// simnet_dropped_total counter is registered. Until this is called, DropProb
// and JitterFrac in link qualities are ignored, which keeps fault-free runs
// byte-identical to builds without the fault subsystem.
func (n *Network) EnableFaults(seed int64) {
	if n.frng == nil {
		n.frng = rand.New(rand.NewSource(seed ^ faultSeedSalt))
	}
	if n.mDropped == nil {
		n.mDropped = n.env.Metrics().Counter("simnet_dropped_total")
	}
}

// SetLinkQuality replaces the a-b link's quality (latency multiplier, jitter
// fraction, drop probability). The zero LinkQuality restores nominal service.
// Routing weights follow the latency multiplier, so every route resolves
// again on its next use.
func (n *Network) SetLinkQuality(a, b string, q LinkQuality) error {
	if q.LatencyMult < 0 || q.JitterFrac < 0 || q.DropProb < 0 || q.DropProb > 1 {
		return fmt.Errorf("simnet: invalid link quality %+v for %s-%s", q, a, b)
	}
	l := n.findLink(a, b)
	if l == nil {
		return fmt.Errorf("simnet: no link %s-%s", a, b)
	}
	l.quality = q
	n.epoch++
	return nil
}

// SetNodeState marks a node up (restarted) or down (crashed). Messages to,
// from or through a down node fail with an UnreachableError.
func (n *Network) SetNodeState(id string, up bool) error {
	node, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("simnet: no node %q", id)
	}
	node.down = !up
	n.epoch++
	return nil
}

// effLatency is the link's one-way propagation delay with any latency
// multiplier applied (jitter excluded: routing and Latency() are
// deterministic queries).
func (l *Link) effLatency() time.Duration {
	if l.quality.LatencyMult > 0 {
		return time.Duration(float64(l.Latency) * l.quality.LatencyMult)
	}
	return l.Latency
}

// hop is one link of a resolved route and the direction the route crosses
// it in: 0 is A->B, 1 is B->A.
type hop struct {
	l   *Link
	dir int
}

// Route is a caller-held handle on the latency-shortest live path from one
// node to another. It resolves on first use and again after any change to
// the network (see Network.epoch), so it never goes stale; in between, a
// message over it walks pre-resolved hops.
type Route struct {
	net      *Network
	from, to string
	epoch    uint64 // the network epoch hops, lat and err were resolved at
	hops     []hop
	lat      time.Duration // sum of the hops' effective latencies
	err      error         // *UnreachableError when no live path exists
}

// Route returns the shared handle on the from -> to path, which callers on a
// hot path keep.
func (n *Network) Route(from, to string) *Route {
	key := [2]string{from, to}
	r := n.routes[key]
	if r == nil {
		r = &Route{net: n, from: from, to: to}
		n.routes[key] = r
	}
	return r
}

// current re-resolves the route if the network changed since it last was.
func (r *Route) current() {
	if r.epoch != r.net.epoch {
		r.resolve()
	}
}

// resolve computes the path with Dijkstra over node ordinals: among equally
// distant nodes the smaller ID settles first and a node keeps the first
// predecessor that reached it, so the path depends on the topology alone.
func (r *Route) resolve() {
	n, sp := r.net, &r.net.sp
	r.epoch, r.hops, r.lat, r.err = n.epoch, r.hops[:0], 0, nil
	if r.from == r.to {
		return
	}
	src, dst := n.nodes[r.from], n.nodes[r.to]
	if src == nil || dst == nil || src.down || dst.down || !sp.run(n, src, dst) {
		r.err = &UnreachableError{From: r.from, To: r.to}
		return
	}
	for at := dst; at != src; { // walk back from dst, then reverse
		l, dir := sp.via[at.ord], 0 // arrived at B over A->B
		if l.ends[0] == at {
			dir = 1
		}
		r.hops = append(r.hops, hop{l: l, dir: dir})
		r.lat += l.effLatency()
		at = l.ends[dir]
	}
	slices.Reverse(r.hops)
}

// shortestPaths is Dijkstra's scratch, kept on the network so that
// resolving a route allocates nothing once warm. Like the rest of the
// network it belongs to one simulation and is used by one process at a time.
type shortestPaths struct {
	dist  []time.Duration
	via   []*Link
	state []uint8 // 0 unreached, 1 reached, 2 settled
	queue []queued
}

type queued struct {
	dist time.Duration
	node *Node
}

// before orders the queue: shorter distance first, then smaller node ID.
func (a queued) before(b queued) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.node.ID < b.node.ID)
}

// run settles live nodes outward from src until dst is settled (true) or
// none is left (false); via then holds the link each node was reached over.
func (s *shortestPaths) run(n *Network, src, dst *Node) bool {
	if len(s.state) < len(n.byOrd) {
		s.dist, s.via, s.state = make([]time.Duration, len(n.byOrd)), make([]*Link, len(n.byOrd)), make([]uint8, len(n.byOrd))
	}
	clear(s.state)
	s.queue = s.queue[:0]
	s.reach(src, 0, nil)
	for len(s.queue) > 0 {
		q := s.pop()
		cur := q.node
		if s.state[cur.ord] == 2 || q.dist != s.dist[cur.ord] {
			continue // settled already, or superseded by a shorter entry
		}
		if cur == dst {
			return true
		}
		s.state[cur.ord] = 2
		for _, l := range cur.links {
			next := l.ends[1]
			if next == cur {
				next = l.ends[0]
			}
			if nd := q.dist + l.effLatency(); !l.down && !next.down && (s.state[next.ord] == 0 || nd < s.dist[next.ord]) {
				s.reach(next, nd, l)
			}
		}
	}
	return false
}

// reach records a new or shorter distance to node and queues it.
func (s *shortestPaths) reach(node *Node, d time.Duration, via *Link) {
	s.state[node.ord], s.dist[node.ord], s.via[node.ord] = max(s.state[node.ord], 1), d, via
	q := append(s.queue, queued{dist: d, node: node})
	for i := len(q) - 1; i > 0 && q[i].before(q[(i-1)/2]); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
	s.queue = q
}

// pop removes and returns the queue's first entry.
func (s *shortestPaths) pop() queued {
	q, top := s.queue, s.queue[0]
	q[0] = q[len(q)-1]
	q = q[:len(q)-1]
	for i := 0; ; {
		m := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(q) && q[c].before(q[m]) {
				m = c
			}
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	s.queue = q
	return top
}

// WideAreaOneWay is the one-way latency at or above which a path counts as
// wide-area. The paper's WAN links are 40–120 ms one way while LAN hops are
// well under a millisecond, so any threshold in between classifies
// identically; tracing and the rmi statistics share this one.
const WideAreaOneWay = 10 * time.Millisecond

// Latency returns the one-way propagation delay along the current shortest
// live path.
func (r *Route) Latency() (time.Duration, error) {
	r.current()
	return r.lat, r.err
}

// RTT returns the round-trip time over the route (twice its latency).
func (r *Route) RTT() (time.Duration, error) {
	r.current()
	return 2 * r.lat, r.err
}

// WideArea reports whether the current shortest live path crosses a
// wide-area distance (one-way latency ≥ WideAreaOneWay). An unreachable
// pair counts as wide: whatever stalls there, a LAN did not.
func (r *Route) WideArea() bool {
	r.current()
	return r.err != nil || r.lat >= WideAreaOneWay
}

// Reachable reports whether a live path exists.
func (r *Route) Reachable() bool {
	r.current()
	return r.err == nil
}

// Delay computes the delivery delay for a message of the given size sent now
// over the route, reserving transmitter time on every link along the path
// (cut-through model: propagation delays add, serialization occupies each
// link's transmitter in turn).
func (r *Route) Delay(bytes int) (time.Duration, error) {
	r.current()
	if r.err != nil {
		return 0, r.err
	}
	bytes = max(bytes, 0)
	n := r.net
	if n.frng != nil {
		// Loss sweep before any transmitter reservation: a dropped
		// message consumes no bandwidth, and RNG draws happen only on
		// lossy links so enabling loss on one link leaves every other
		// link's timing untouched.
		for _, h := range r.hops {
			if p := h.l.quality.DropProb; p > 0 && n.frng.Float64() < p {
				n.mDropped.Inc()
				return 0, &DroppedError{From: r.from, To: r.to}
			}
		}
	}
	now := n.env.Now()
	depart := now // when the head of the message enters the next link
	arrive := now
	for _, h := range r.hops {
		l, dir := h.l, h.dir
		lat := l.effLatency()
		if n.frng != nil && l.quality.JitterFrac > 0 {
			lat += time.Duration(n.frng.Float64() * l.quality.JitterFrac * float64(lat))
		}
		ser := time.Duration(float64(bytes) / l.Bps * float64(time.Second))
		start := max(depart, l.busyUntil[dir])
		l.mBytes[dir].Add(int64(bytes))
		l.mQueue[dir].Observe(start - depart)
		l.busyUntil[dir] = start + ser
		depart = start + lat
		arrive = start + ser + lat
	}
	n.mMsgs.Inc()
	n.mBytes.Add(int64(bytes))
	n.mDelay.Observe(arrive - now)
	return arrive - now, nil
}

// Transfer blocks the process for the delivery delay of a message over the
// route. It models one one-way network hop of an RPC or HTTP exchange.
func (r *Route) Transfer(p *sim.Proc, bytes int) error {
	d, err := r.Delay(bytes)
	if err == nil {
		p.Sleep(d)
	}
	return err
}

// WideArea is Route(a, b).WideArea().
func (n *Network) WideArea(a, b string) bool { return n.Route(a, b).WideArea() }

// Transfer is Route(from, to).Transfer(p, bytes).
func (n *Network) Transfer(p *sim.Proc, from, to string, bytes int) error {
	return n.Route(from, to).Transfer(p, bytes)
}

// BulkError reports a bulk state transfer that failed part-way through.
// Sent is the number of bytes already delivered and acknowledged before the
// failure, so callers can resume from that offset instead of restarting; Err
// is the underlying transport failure (*UnreachableError for a downed path,
// *DroppedError for a chunk lost to a lossy link). Both causes are
// retryable: a retransmit of the remaining bytes is always safe.
type BulkError struct {
	From, To string
	Sent     int
	Err      error
}

func (e *BulkError) Error() string {
	return fmt.Sprintf("simnet: bulk transfer %s->%s interrupted after %d bytes: %v", e.From, e.To, e.Sent, e.Err)
}

// Unwrap exposes the underlying transport error to errors.Is/As.
func (e *BulkError) Unwrap() error { return e.Err }

// TransferBulk moves a bulk payload from from to to in chunk-sized pieces
// (default 64 KiB when chunk <= 0), blocking the process for each chunk's
// delivery delay. Unlike Transfer — whose cut-through delay is computed in
// full at send time, so a link failure mid-sleep cannot interrupt it — a
// bulk transfer re-validates the path at every chunk boundary: a link or
// node downed mid-transfer surfaces as a *BulkError carrying the resume
// offset rather than silently stalling the lane or delivering bytes over a
// dead path. A chunk in flight when the path dies is counted as lost (the
// sender never sees its ack), so Sent only covers fully delivered chunks.
func (n *Network) TransferBulk(p *sim.Proc, from, to string, bytes, chunk int) error {
	if chunk <= 0 {
		chunk = 64 << 10
	}
	r := n.Route(from, to)
	sent := 0
	for sent < bytes {
		sz := bytes - sent
		if sz > chunk {
			sz = chunk
		}
		d, err := r.Delay(sz)
		if err != nil {
			return &BulkError{From: from, To: to, Sent: sent, Err: err}
		}
		p.Sleep(d)
		if !r.Reachable() {
			return &BulkError{From: from, To: to, Sent: sent, Err: &UnreachableError{From: from, To: to}}
		}
		sent += sz
	}
	return nil
}
