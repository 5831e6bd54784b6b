package simnet

import (
	"time"

	"wadeploy/internal/sim"
)

// Canonical node names for the paper's testbed (Fig. 2).
const (
	NodeMain   = "main"   // main application server, co-located with the DB
	NodeEdge1  = "edge1"  // first edge application server
	NodeEdge2  = "edge2"  // second edge application server
	NodeDB     = "db"     // database server
	NodeRouter = "router" // Click software router at the center of the star

	// Client-group nodes, one per application server, each standing in for
	// the three client machines collocated with that server.
	NodeClientsMain  = "clients-main"
	NodeClientsEdge1 = "clients-edge1"
	NodeClientsEdge2 = "clients-edge2"
)

// Topology parameters mirroring the testbed in Section 3.1.
const (
	// WANOneWay is the one-way latency of each WAN path between an
	// application server and any other (100 ms each way through the
	// router, i.e. 50 ms per router leg).
	WANOneWay = 100 * time.Millisecond

	// LANOneWay is the one-way latency of a local-area hop (client to
	// collocated server, DB to main server).
	LANOneWay = 250 * time.Microsecond

	// WANBps is the WAN bandwidth: 100 Mbit/s in bytes per second.
	WANBps = 100e6 / 8

	// LANBps is the LAN bandwidth (100 Mbit/s switched Ethernet).
	LANBps = 100e6 / 8

	// ServerCPUs models the dual-processor Pentium III workstations.
	ServerCPUs = 2

	// ClientCPUs is effectively unlimited: client machines never saturate.
	ClientCPUs = 64
)

// PaperTopology builds the network of Fig. 2: three application servers in a
// star around a software router with 100 ms each-way WAN latency, a database
// server on the main server's LAN, and a client group on each server's LAN.
// The star is the zero HierarchySpec: two edges below one routing hub.
func PaperTopology(env *sim.Env) (*Network, error) {
	h, err := BuildHierarchy(env, HierarchySpec{})
	if err != nil {
		return nil, err
	}
	return h.Net, nil
}
