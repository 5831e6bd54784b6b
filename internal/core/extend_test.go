package core

import (
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// unwiredFixture builds a deployment with one RW entity, a fetch façade,
// and its replica bundle wired onto no server (no replicas yet).
func unwiredFixture(t *testing.T) (*Deployment, *container.RWEntity, *Wiring) {
	t.Helper()
	d, err := NewPaperDeployment(sim.NewEnv(11), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d, rw := itemFixture(t, d)
	if _, err := container.DeployStateless(d.Main, "Fetch", map[string]container.Method{
		"fetch": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			return rw.Load(p, inv.Args[0])
		},
	}); err != nil {
		t.Fatal(err)
	}
	w, err := AutoWire(d, &container.ExtendedDescriptor{
		Replicas: []container.ReplicaSpec{
			{Bean: "ItemRW"},
		},
	}, WireOptions{
		FetchFor: func(server *container.Server, rwBean string) container.FetchFunc {
			return func(p *sim.Proc, pk sqldb.Value) (container.Row, error) {
				stub, err := server.StubFor(p, simnet.NodeMain, "Fetch")
				if err != nil {
					return container.Row{}, err
				}
				v, err := stub.Invoke(p, "fetch", pk)
				if err != nil {
					return container.Row{}, err
				}
				return v.(container.Row), nil
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, rw, w
}

func TestWiringOnNoServerStartsEmpty(t *testing.T) {
	d, rw, w := unwiredFixture(t)
	if w.DeployedOn(d.Edges[0].Name()) || w.DeployedOn(d.Edges[1].Name()) {
		t.Fatal("a wiring on no server deployed replicas")
	}
	// Writes succeed with zero push fan-out.
	var writeCost time.Duration
	runWarm(d.Env, "writer", func(p *sim.Proc) {
		start := p.Now()
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), container.State{"qty": sqldb.Int(1)}); err != nil {
			t.Errorf("update: %v", err)
		}
		writeCost = p.Now() - start
	})
	if writeCost >= 100*time.Millisecond {
		t.Fatalf("write with no replicas cost %v, want local", writeCost)
	}
	if got := d.Env.Metrics().CounterValue("container_replica_pushes_total"); got != 0 {
		t.Fatalf("pushes = %d before any extension, want 0", got)
	}
}

func TestExtendToAtRuntime(t *testing.T) {
	d, rw, w := unwiredFixture(t)
	edge := d.Edges[0]
	runWarm(d.Env, "runtime", func(p *sim.Proc) {
		if err := w.ExtendTo(edge); err != nil {
			t.Fatalf("extend: %v", err)
		}
		// Idempotent.
		if err := w.ExtendTo(edge); err != nil {
			t.Fatalf("re-extend: %v", err)
		}
		ro := w.Replica(edge.Name(), "ItemRW")
		if ro == nil {
			t.Fatal("no replica after extension")
		}
		// Cold read fetches, then writes keep it fresh (sync push now has
		// one target).
		if _, err := ro.Get(p, sqldb.Str("i1")); err != nil {
			t.Fatalf("get: %v", err)
		}
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), container.State{"qty": sqldb.Int(5)}); err != nil {
			t.Fatalf("update: %v", err)
		}
		st, err := ro.Get(p, sqldb.Str("i1"))
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if st.Get("qty").AsInt() != 5 {
			t.Fatalf("replica qty = %v after extension, want pushed 5", st.Get("qty"))
		}
	})
	// The bean's one pusher reached the one extended edge once.
	if got := d.Env.Metrics().CounterValue("container_replica_pushes_total"); got != 1 {
		t.Fatalf("pushes = %d, want 1", got)
	}
	// The other edge remains unwired: pushes target only edge1.
	if w.DeployedOn(d.Edges[1].Name()) {
		t.Fatal("unrequested edge got wired")
	}
}

// TestAutoWireWithMaxStalenessSetsTTL: a descriptor's MaxStaleness is the
// replicas' timeout: an entry is served locally until it is older than 30 s,
// then refreshed through the fetch path.
func TestAutoWireWithMaxStalenessSetsTTL(t *testing.T) {
	d, rw := wireFixture(t)
	defer d.Env.Close()
	w, err := AutoWire(d, &container.ExtendedDescriptor{
		Topic: "t",
		Replicas: []container.ReplicaSpec{
			{Bean: "ItemRW", Update: container.Propagation{Async: true, MaxStaleness: 30 * time.Second}},
		},
	}, WireOptions{FetchFor: func(*container.Server, string) container.FetchFunc { return rw.Load }}, d.Edges...)
	if err != nil {
		t.Fatal(err)
	}
	reg := d.Env.Metrics()
	for _, e := range d.Edges {
		ro := w.Replica(e.Name(), "ItemRW")
		runWarm(d.Env, "reader", func(p *sim.Proc) {
			for _, wait := range []time.Duration{0, 29 * time.Second, 2 * time.Second} {
				p.Sleep(wait)
				if _, err := ro.Get(p, sqldb.Str("i1")); err != nil {
					t.Errorf("%s get: %v", e.Name(), err)
				}
			}
		})
	}
	hits, stale := reg.CounterValue("container_replica_hits_total"), reg.CounterValue("container_replica_stale_refreshes_total")
	if n := int64(len(d.Edges)); hits != n || stale != n {
		t.Fatalf("%d hits and %d timeout refreshes on %d edges, want one of each per edge", hits, stale, n)
	}
}
