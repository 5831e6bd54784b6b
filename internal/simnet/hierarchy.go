package simnet

import (
	"fmt"
	"time"

	"wadeploy/internal/sim"
)

// LinkClass bundles the latency/bandwidth parameters of one tier of a
// hierarchical topology (backbone, metro, LAN).
type LinkClass struct {
	OneWay time.Duration
	Bps    float64
}

// Default link classes for CDN-style hierarchies: a continental backbone hop
// from the main site to a regional hub, a metro hop from the hub to an edge
// PoP, and the same switched-Ethernet LAN as the paper's testbed. Any
// server-to-server path crosses at least one metro hop, so every inter-server
// distance classifies as wide-area (>= WideAreaOneWay).
var (
	DefaultBackboneClass = LinkClass{OneWay: 40 * time.Millisecond, Bps: 10 * WANBps}
	DefaultMetroClass    = LinkClass{OneWay: 10 * time.Millisecond, Bps: WANBps}
	DefaultLANClass      = LinkClass{OneWay: LANOneWay, Bps: LANBps}
)

// HierarchySpec parameterizes BuildHierarchy: a main site (application server
// + database + local clients) at the root, Hubs regional routing hubs one
// backbone hop below it, and Edges edge PoPs (application server + client
// group each) spread round-robin across the hubs one metro hop further down.
//
// The zero value is the paper's testbed (Section 3.1, Fig. 2): two edges in a
// star around one hub — the Click router — whose backbone and metro legs each
// carry half of WANOneWay, under the paper's node names (router, edge1,
// clients-edge1, ...). A WAN-latency sweep over the star sets Backbone and
// Metro on an otherwise zero spec.
type HierarchySpec struct {
	// Edges is the number of edge PoPs; 0 selects the paper's star.
	Edges int
	// Hubs is the number of regional hubs; 0 derives one hub per eight
	// edges (at least one). The star always has its one router.
	Hubs int

	// Per-level link classes; zero values select the defaults above (on
	// the star: WANOneWay/2 and WANBps for both WAN legs).
	Backbone LinkClass // main <-> hub
	Metro    LinkClass // hub <-> edge
	LAN      LinkClass // clients <-> server, db <-> main

	// RedundantUplinks gives every edge a second metro uplink to the next
	// hub in ring order, so a hub crash leaves an alternate route instead
	// of partitioning the whole subtree. Meaningful only with Hubs >= 2.
	RedundantUplinks bool

	// star is set by WithDefaults on a zero-Edges spec: nodes take the
	// paper's names instead of the numbered hierarchy names.
	star bool
}

// DefaultHierarchySpec returns the default spec for the given edge count.
func DefaultHierarchySpec(edges int) HierarchySpec {
	return HierarchySpec{Edges: edges}
}

// paperLeg is one router leg of the paper's star: any server-to-server path
// crosses two of them, so each carries half the one-way WAN latency.
var paperLeg = LinkClass{OneWay: WANOneWay / 2, Bps: WANBps}

// WithDefaults returns the spec BuildHierarchy actually builds: zero fields
// filled in, the hub count clamped to the edge count, and a zero-Edges spec
// resolved to the paper's star.
func (s HierarchySpec) WithDefaults() HierarchySpec {
	backbone, metro := DefaultBackboneClass, DefaultMetroClass
	if s.Edges == 0 {
		s.Edges, s.Hubs, s.star = 2, 1, true
		backbone, metro = paperLeg, paperLeg
	}
	if s.Hubs <= 0 {
		s.Hubs = (s.Edges + 7) / 8
	}
	if s.Hubs > s.Edges {
		s.Hubs = s.Edges
	}
	// The paper's names cover exactly the star's nodes: a resolved star spec
	// that was reshaped afterwards gets the numbered names.
	s.star = s.star && s.Edges == len(paperEdges) && s.Hubs == 1
	if s.Backbone.OneWay <= 0 {
		s.Backbone.OneWay = backbone.OneWay
	}
	if s.Backbone.Bps <= 0 {
		s.Backbone.Bps = backbone.Bps
	}
	if s.Metro.OneWay <= 0 {
		s.Metro.OneWay = metro.OneWay
	}
	if s.Metro.Bps <= 0 {
		s.Metro.Bps = metro.Bps
	}
	if s.LAN.OneWay <= 0 {
		s.LAN.OneWay = DefaultLANClass.OneWay
	}
	if s.LAN.Bps <= 0 {
		s.LAN.Bps = DefaultLANClass.Bps
	}
	return s
}

// HubName returns the canonical name of hub i (zero-based). Names are
// zero-padded so lexicographic order equals numeric order for up to 100 hubs.
func HubName(i int) string { return fmt.Sprintf("hub%02d", i) }

// EdgeName returns the canonical name of edge PoP i (zero-based), zero-padded
// for stable ordering up to 1000 edges.
func EdgeName(i int) string { return fmt.Sprintf("edge%03d", i) }

// EdgeClientsName returns the client-group node collocated with edge i.
func EdgeClientsName(i int) string { return "clients-" + EdgeName(i) }

// The paper's names for the star's edges and their client groups.
var (
	paperEdges   = [...]string{NodeEdge1, NodeEdge2}
	paperClients = [...]string{NodeClientsEdge1, NodeClientsEdge2}
)

// hubName and edgeNames name the nodes of a resolved spec: the numbered
// hierarchy names, or the paper's on the star.
func (s HierarchySpec) hubName(i int) string {
	if s.star {
		return NodeRouter
	}
	return HubName(i)
}

func (s HierarchySpec) edgeNames(i int) (edge, clients string) {
	if s.star {
		return paperEdges[i], paperClients[i]
	}
	return EdgeName(i), EdgeClientsName(i)
}

// ServerNodes returns the application-server nodes the spec deploys onto, in
// deployment order: main first, then every edge. Hubs route but never host
// components.
func (s HierarchySpec) ServerNodes() []string {
	s = s.WithDefaults()
	out := make([]string, 0, 1+s.Edges)
	out = append(out, NodeMain)
	for i := 0; i < s.Edges; i++ {
		edge, _ := s.edgeNames(i)
		out = append(out, edge)
	}
	return out
}

// Hierarchy is a built hierarchical topology: the network plus the naming,
// parent and client-group maps deployments and fault schedules navigate.
type Hierarchy struct {
	Net  *Network
	Spec HierarchySpec // with defaults applied

	// HubNames and EdgeNames are in construction (numeric) order.
	HubNames  []string
	EdgeNames []string

	parent   map[string]string // edge -> primary hub; hub -> main
	backup   map[string]string // edge -> redundant hub (RedundantUplinks only)
	clientOf map[string]string // server -> collocated client-group node
}

// BuildHierarchy builds an N-edge hierarchical topology on env: main (with
// database and local client group), Spec.Hubs routing hubs and Spec.Edges
// edge PoPs, each with its own client group. Multi-hop routing, link-class
// latencies and fault behavior all come from the underlying Network.
func BuildHierarchy(env *sim.Env, spec HierarchySpec) (*Hierarchy, error) {
	if spec.Edges < 0 {
		return nil, fmt.Errorf("simnet: hierarchy with %d edges", spec.Edges)
	}
	spec = spec.WithDefaults()
	n := New(env)
	h := &Hierarchy{
		Net:      n,
		Spec:     spec,
		parent:   make(map[string]string, spec.Edges+spec.Hubs),
		backup:   make(map[string]string, spec.Edges),
		clientOf: make(map[string]string, spec.Edges+1),
	}
	fail := func(err error) (*Hierarchy, error) {
		return nil, fmt.Errorf("simnet: hierarchy: %w", err)
	}
	// Root site: main application server, database, local clients.
	if _, err := n.AddNode(NodeMain, ServerCPUs); err != nil {
		return fail(err)
	}
	if _, err := n.AddNode(NodeDB, ServerCPUs); err != nil {
		return fail(err)
	}
	if _, err := n.AddNode(NodeClientsMain, ClientCPUs); err != nil {
		return fail(err)
	}
	if _, err := n.AddLink(NodeDB, NodeMain, spec.LAN.OneWay, spec.LAN.Bps); err != nil {
		return fail(err)
	}
	if _, err := n.AddLink(NodeClientsMain, NodeMain, spec.LAN.OneWay, spec.LAN.Bps); err != nil {
		return fail(err)
	}
	h.clientOf[NodeMain] = NodeClientsMain
	// Regional hubs: pure routing nodes one backbone hop below main.
	for i := 0; i < spec.Hubs; i++ {
		hub := spec.hubName(i)
		if _, err := n.AddNode(hub, ServerCPUs); err != nil {
			return fail(err)
		}
		if _, err := n.AddLink(NodeMain, hub, spec.Backbone.OneWay, spec.Backbone.Bps); err != nil {
			return fail(err)
		}
		h.HubNames = append(h.HubNames, hub)
		h.parent[hub] = NodeMain
	}
	// Edge PoPs: application server + client group, one metro hop below
	// their primary hub (round-robin assignment keeps subtree sizes within
	// one of each other).
	for i := 0; i < spec.Edges; i++ {
		edge, clients := spec.edgeNames(i)
		hub := h.HubNames[i%spec.Hubs]
		if _, err := n.AddNode(edge, ServerCPUs); err != nil {
			return fail(err)
		}
		if _, err := n.AddNode(clients, ClientCPUs); err != nil {
			return fail(err)
		}
		if _, err := n.AddLink(edge, hub, spec.Metro.OneWay, spec.Metro.Bps); err != nil {
			return fail(err)
		}
		if _, err := n.AddLink(clients, edge, spec.LAN.OneWay, spec.LAN.Bps); err != nil {
			return fail(err)
		}
		h.EdgeNames = append(h.EdgeNames, edge)
		h.parent[edge] = hub
		h.clientOf[edge] = clients
		if spec.RedundantUplinks && spec.Hubs >= 2 {
			alt := h.HubNames[(i+1)%spec.Hubs]
			// Slightly longer than the primary so the redundant uplink
			// only carries traffic when the primary path is gone.
			if _, err := n.AddLink(edge, alt, spec.Metro.OneWay+spec.Metro.OneWay/4, spec.Metro.Bps); err != nil {
				return fail(err)
			}
			h.backup[edge] = alt
		}
	}
	return h, nil
}

// ServerNodes returns the application-server nodes in deployment order (see
// HierarchySpec.ServerNodes).
func (h *Hierarchy) ServerNodes() []string {
	out := make([]string, 0, 1+len(h.EdgeNames))
	out = append(out, NodeMain)
	return append(out, h.EdgeNames...)
}

// ClientNode returns the client-group node collocated with server, or "".
func (h *Hierarchy) ClientNode(server string) string { return h.clientOf[server] }

// BackupHub returns the hub an edge's redundant uplink reaches, or "" when
// the spec has no redundant uplinks.
func (h *Hierarchy) BackupHub(edge string) string { return h.backup[edge] }

// Subtree returns the edge PoPs whose primary uplink goes through hub, in
// numeric order — the blast radius of a hub outage (absent redundancy).
func (h *Hierarchy) Subtree(hub string) []string {
	var out []string
	for _, e := range h.EdgeNames {
		if h.parent[e] == hub {
			out = append(out, e)
		}
	}
	return out
}
