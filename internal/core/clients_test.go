package core

import (
	"strconv"
	"testing"
	"time"

	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

// TestClientGroupsOnPaperStar pins the paper's population on the default
// deployment: local, remote-1 and remote-2 on the paper's client nodes, each
// with round(64·scale) browsers and round(16·scale) writers, so that scaled
// star runs keep the populations (and client names) the load sweep has always
// had.
func TestClientGroupsOnPaperStar(t *testing.T) {
	d := newDeployment(t)
	tmpl := workload.Group{Delay: 8 * time.Second, BrowserPattern: "B", WriterPattern: "W"}
	for _, tc := range []struct {
		scale             float64
		browsers, writers int
	}{
		{1, 64, 16}, {0.5, 32, 8}, {2, 128, 32}, {3, 192, 48},
		{0.26, 17, 4}, // 2·round(64·0.26) = 34 remote browsers, not round(128·0.26) = 33
		{0.001, 1, 1}, // never empty
	} {
		groups := d.ClientGroups(tmpl, tc.scale)
		want := []struct {
			name, node string
			local      bool
		}{
			{"local", simnet.NodeClientsMain, true},
			{"remote-1", simnet.NodeClientsEdge1, false},
			{"remote-2", simnet.NodeClientsEdge2, false},
		}
		if len(groups) != len(want) {
			t.Fatalf("scale %v: %d groups, want %d", tc.scale, len(groups), len(want))
		}
		for i, g := range groups {
			w := want[i]
			if g.Name != w.name || g.ClientNode != w.node || g.Local != w.local {
				t.Errorf("scale %v: group %d is %s on %s (local=%v), want %s on %s (local=%v)",
					tc.scale, i, g.Name, g.ClientNode, g.Local, w.name, w.node, w.local)
			}
			if g.Browsers != tc.browsers || g.Writers != tc.writers {
				t.Errorf("scale %v: %s has %d browsers / %d writers, want %d/%d",
					tc.scale, g.Name, g.Browsers, g.Writers, tc.browsers, tc.writers)
			}
			if g.Delay != tmpl.Delay || g.BrowserPattern != "B" || g.WriterPattern != "W" {
				t.Errorf("scale %v: %s lost the template: %+v", tc.scale, g.Name, g)
			}
		}
	}
}

// TestClientGroupsSpreadOverEdges pins the constant-total-load property:
// whatever the edge count, the remote population is the paper's two remote
// groups' worth, spread as evenly as possible with earlier edges taking the
// remainder, on each edge's own client node.
func TestClientGroupsSpreadOverEdges(t *testing.T) {
	for _, edges := range []int{1, 2, 3, 5, 8, 128} {
		d, h := newHierDeployment(t, simnet.HierarchySpec{Edges: edges})
		groups := d.ClientGroups(workload.Group{Delay: time.Second}, 1)
		if len(groups) != 1+edges {
			t.Fatalf("edges=%d: %d groups", edges, len(groups))
		}
		if g := groups[0]; g.Name != "local" || !g.Local || g.ClientNode != simnet.NodeClientsMain ||
			g.Browsers != 64 || g.Writers != 16 {
			t.Fatalf("edges=%d: local group %+v", edges, g)
		}
		totB, totW := 0, 0
		for i, g := range groups[1:] {
			if want := "remote-" + strconv.Itoa(i+1); g.Name != want || g.Local {
				t.Fatalf("edges=%d: group %d is %q (local=%v), want %q", edges, i, g.Name, g.Local, want)
			}
			if want := h.ClientNode(d.Edges[i].Name()); g.ClientNode != want {
				t.Fatalf("edges=%d: %s on %s, want %s", edges, g.Name, g.ClientNode, want)
			}
			wantB, wantW := 128/edges, 32/edges
			if i < 128%edges {
				wantB++
			}
			if i < 32%edges {
				wantW++
			}
			if g.Browsers != wantB || g.Writers != wantW {
				t.Fatalf("edges=%d: %s has %d/%d, want %d/%d", edges, g.Name, g.Browsers, g.Writers, wantB, wantW)
			}
			totB += g.Browsers
			totW += g.Writers
		}
		if totB != 128 || totW != 32 {
			t.Fatalf("edges=%d: remote totals %d browsers / %d writers, want 128/32", edges, totB, totW)
		}
		d.Env.Close()
	}
}
