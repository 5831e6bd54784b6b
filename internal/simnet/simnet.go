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
package simnet

import (
	"fmt"
	"math/rand"
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

	down bool
}

// Link is a bidirectional connection between two nodes.
type Link struct {
	A, B    string
	Latency time.Duration // one-way propagation delay
	Bps     float64       // bandwidth in bytes per second

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
	links []*Link
	adj   map[string][]*Link

	// routes caches computed paths; invalidated when topology or link
	// state changes.
	routes map[[2]string][]*Link

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
		adj:       make(map[string][]*Link),
		routes:    make(map[[2]string][]*Link),
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
	node := &Node{ID: id, CPU: sim.NewResource(n.env, cpuSlots)}
	n.nodes[id] = node
	return node, nil
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id string) *Node { return n.nodes[id] }

// HasLink reports whether a link between a and b exists (in either order).
func (n *Network) HasLink(a, b string) bool {
	for _, l := range n.links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return true
		}
	}
	return false
}

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return len(n.nodes) }

// AddLink connects a and b with the given one-way latency and bandwidth
// (bytes per second). Both endpoints must exist.
func (n *Network) AddLink(a, b string, latency time.Duration, bps float64) (*Link, error) {
	if _, ok := n.nodes[a]; !ok {
		return nil, fmt.Errorf("simnet: link endpoint %q does not exist", a)
	}
	if _, ok := n.nodes[b]; !ok {
		return nil, fmt.Errorf("simnet: link endpoint %q does not exist", b)
	}
	if bps <= 0 {
		return nil, fmt.Errorf("simnet: link %s-%s bandwidth must be positive", a, b)
	}
	l := &Link{A: a, B: b, Latency: latency, Bps: bps}
	l.mBytes[0] = n.linkBytes.With(a + ">" + b)
	l.mBytes[1] = n.linkBytes.With(b + ">" + a)
	l.mQueue[0] = n.linkQueue.With(a + ">" + b)
	l.mQueue[1] = n.linkQueue.With(b + ">" + a)
	n.mLinks.Add(1)
	n.links = append(n.links, l)
	n.adj[a] = append(n.adj[a], l)
	n.adj[b] = append(n.adj[b], l)
	n.routes = make(map[[2]string][]*Link)
	return l, nil
}

// SetLinkState marks the a-b link up or down. Transfers across a down link
// fail with an UnreachableError (unless another path exists).
func (n *Network) SetLinkState(a, b string, up bool) error {
	for _, l := range n.links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			l.down = !up
			n.routes = make(map[[2]string][]*Link)
			return nil
		}
	}
	return fmt.Errorf("simnet: no link %s-%s", a, b)
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
// Routing weights follow the latency multiplier, so the route cache is
// invalidated.
func (n *Network) SetLinkQuality(a, b string, q LinkQuality) error {
	if q.LatencyMult < 0 || q.JitterFrac < 0 || q.DropProb < 0 || q.DropProb > 1 {
		return fmt.Errorf("simnet: invalid link quality %+v for %s-%s", q, a, b)
	}
	for _, l := range n.links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			l.quality = q
			n.routes = make(map[[2]string][]*Link)
			return nil
		}
	}
	return fmt.Errorf("simnet: no link %s-%s", a, b)
}

// SetNodeState marks a node up (restarted) or down (crashed). Messages to,
// from or through a down node fail with an UnreachableError.
func (n *Network) SetNodeState(id string, up bool) error {
	node, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("simnet: no node %q", id)
	}
	node.down = !up
	n.routes = make(map[[2]string][]*Link)
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

// path returns the latency-shortest live path from a to b using Dijkstra.
func (n *Network) path(a, b string) ([]*Link, error) {
	if a == b {
		return nil, nil
	}
	key := [2]string{a, b}
	if p, ok := n.routes[key]; ok {
		if p == nil {
			return nil, &UnreachableError{From: a, To: b}
		}
		return p, nil
	}
	if na, ok := n.nodes[a]; ok && na.down {
		n.routes[key] = nil
		return nil, &UnreachableError{From: a, To: b}
	}
	if nb, ok := n.nodes[b]; ok && nb.down {
		n.routes[key] = nil
		return nil, &UnreachableError{From: a, To: b}
	}
	type entry struct {
		dist time.Duration
		via  *Link
		prev string
	}
	dist := map[string]entry{a: {}}
	visited := map[string]bool{}
	for {
		// Select the unvisited node with the smallest distance
		// (deterministic tie-break by node ID).
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
			n.routes[key] = nil
			return nil, &UnreachableError{From: a, To: b}
		}
		if cur == b {
			break
		}
		visited[cur] = true
		for _, l := range n.adj[cur] {
			if l.down {
				continue
			}
			next := l.B
			if next == cur {
				next = l.A
			}
			if nn, ok := n.nodes[next]; ok && nn.down {
				continue
			}
			nd := dist[cur].dist + l.effLatency()
			if e, ok := dist[next]; !ok || nd < e.dist {
				dist[next] = entry{dist: nd, via: l, prev: cur}
			}
		}
	}
	// Walk back from b to a collecting links.
	var rev []*Link
	for at := b; at != a; {
		e := dist[at]
		rev = append(rev, e.via)
		at = e.prev
	}
	p := make([]*Link, len(rev))
	for i := range rev {
		p[i] = rev[len(rev)-1-i]
	}
	n.routes[key] = p
	return p, nil
}

// WideAreaOneWay is the one-way latency at or above which a path counts as
// wide-area. The paper's WAN links are 40–120 ms one way while LAN hops are
// well under a millisecond, so any threshold in between classifies
// identically; tracing and the rmi statistics share this one.
const WideAreaOneWay = 10 * time.Millisecond

// WideArea reports whether the current shortest live path from a to b
// crosses a wide-area distance (one-way latency ≥ WideAreaOneWay).
// Unreachable pairs count as wide: whatever stalls there, a LAN did not.
func (n *Network) WideArea(a, b string) bool {
	d, err := n.Latency(a, b)
	return err != nil || d >= WideAreaOneWay
}

// Latency returns the one-way propagation delay from a to b along the
// current shortest live path.
func (n *Network) Latency(a, b string) (time.Duration, error) {
	p, err := n.path(a, b)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, l := range p {
		total += l.effLatency()
	}
	return total, nil
}

// RTT returns the round-trip time between a and b.
func (n *Network) RTT(a, b string) (time.Duration, error) {
	lat, err := n.Latency(a, b)
	if err != nil {
		return 0, err
	}
	return 2 * lat, nil
}

// Reachable reports whether a live path from a to b exists.
func (n *Network) Reachable(a, b string) bool {
	_, err := n.path(a, b)
	return err == nil
}

// Delay computes the delivery delay for a message of the given size sent now
// from a to b, reserving transmitter time on every link along the path
// (cut-through model: propagation delays add, serialization occupies each
// link's transmitter in turn).
func (n *Network) Delay(from, to string, bytes int) (time.Duration, error) {
	if bytes < 0 {
		bytes = 0
	}
	p, err := n.path(from, to)
	if err != nil {
		return 0, err
	}
	if n.frng != nil {
		// Loss sweep before any transmitter reservation: a dropped
		// message consumes no bandwidth, and RNG draws happen only on
		// lossy links so enabling loss on one link leaves every other
		// link's timing untouched.
		for _, l := range p {
			if l.quality.DropProb > 0 && n.frng.Float64() < l.quality.DropProb {
				n.mDropped.Inc()
				return 0, &DroppedError{From: from, To: to}
			}
		}
	}
	now := n.env.Now()
	depart := now // when the head of the message enters the next link
	arrive := now
	at := from
	for _, l := range p {
		dir := 0
		if l.A != at {
			dir = 1
		}
		lat := l.effLatency()
		if n.frng != nil && l.quality.JitterFrac > 0 {
			lat += time.Duration(n.frng.Float64() * l.quality.JitterFrac * float64(lat))
		}
		ser := time.Duration(float64(bytes) / l.Bps * float64(time.Second))
		start := depart
		if l.busyUntil[dir] > start {
			start = l.busyUntil[dir]
		}
		l.mBytes[dir].Add(int64(bytes))
		l.mQueue[dir].Observe(start - depart)
		l.busyUntil[dir] = start + ser
		depart = start + lat
		arrive = start + ser + lat
		if l.A == at {
			at = l.B
		} else {
			at = l.A
		}
	}
	n.mMsgs.Inc()
	n.mBytes.Add(int64(bytes))
	n.mDelay.Observe(arrive - now)
	return arrive - now, nil
}

// Transfer blocks the process for the delivery delay of a message from
// from to to. It models one one-way network hop of an RPC or HTTP exchange.
func (n *Network) Transfer(p *sim.Proc, from, to string, bytes int) error {
	d, err := n.Delay(from, to, bytes)
	if err != nil {
		return err
	}
	p.Sleep(d)
	return nil
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
	sent := 0
	for sent < bytes {
		sz := bytes - sent
		if sz > chunk {
			sz = chunk
		}
		d, err := n.Delay(from, to, sz)
		if err != nil {
			return &BulkError{From: from, To: to, Sent: sent, Err: err}
		}
		p.Sleep(d)
		if !n.Reachable(from, to) {
			return &BulkError{From: from, To: to, Sent: sent, Err: &UnreachableError{From: from, To: to}}
		}
		sent += sz
	}
	return nil
}

// Send delivers a message asynchronously: fn runs on the scheduler at the
// delivery time. It returns the delivery delay. Use it for one-way messages
// such as JMS publications.
func (n *Network) Send(from, to string, bytes int, fn func()) (time.Duration, error) {
	d, err := n.Delay(from, to, bytes)
	if err != nil {
		return 0, err
	}
	n.env.After(d, fn)
	return d, nil
}
