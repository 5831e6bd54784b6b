package core

import (
	"strconv"

	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// Per-group client population of Section 3.3 at scale 1: 30 page requests
// per second combined, 80% browsers / 20% writers, split equally between one
// local and two remote groups. With an 8-second think time that is 64
// browsers and 16 writers per group. The deployment advisor's client classes
// (planner.ClientMix) are the same population.
const (
	PaperBrowsers     = 64
	PaperWriters      = 16
	PaperRemoteGroups = 2
)

// ClientGroups builds the deployment's client groups from tmpl, which carries
// what the application decides (think time, patterns, generators, request
// function): one local group on main's LAN with the paper's per-group
// population times scale, plus the paper's two remote groups' worth of clients
// spread over the edge client groups, earlier edges taking the remainder.
// The total offered load therefore depends on scale only, never on the edge
// count — what makes an edge-count sweep a scaling curve rather than a load
// sweep — and on the star the groups are exactly the paper's three.
//
// Remote groups are named by index on every topology: client names derive
// from the group name and key both web sessions and trace sampling.
func (d *Deployment) ClientGroups(tmpl workload.Group, scale float64) []workload.Group {
	browsers := max(int(PaperBrowsers*scale+0.5), 1)
	writers := max(int(PaperWriters*scale+0.5), 1)
	n := len(d.Edges)
	groups := make([]workload.Group, 0, 1+n)
	add := func(name, node string, local bool, browsers, writers int) {
		g := tmpl
		g.Name, g.ClientNode, g.Local = name, node, local
		g.Browsers, g.Writers = browsers, writers
		groups = append(groups, g)
	}
	add("local", simnet.NodeClientsMain, true, browsers, writers)
	for i, edge := range d.Edges {
		add("remote-"+strconv.Itoa(i+1), d.ClientNodeOf(edge.Name()), false,
			share(PaperRemoteGroups*browsers, n, i), share(PaperRemoteGroups*writers, n, i))
	}
	return groups
}

// share is part i's size when total is split over n parts as evenly as
// possible, earlier parts taking the remainder.
func share(total, n, i int) int {
	s := total / n
	if i < total%n {
		s++
	}
	return s
}
