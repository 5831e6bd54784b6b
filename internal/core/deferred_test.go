package core

import (
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

// deferredFixture builds a deployment with one RW entity, a fetch façade,
// and deferred wiring (no replicas yet).
func deferredFixture(t *testing.T) (*Deployment, *container.RWEntity, *Wiring) {
	t.Helper()
	opts := DefaultOptions()
	opts.Deferred = true
	d, err := NewPaperDeployment(sim.NewEnv(11), opts)
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
			{Bean: "ItemRW", Update: container.SyncUpdate},
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

func TestDeferredWiringStartsEmpty(t *testing.T) {
	d, rw, w := deferredFixture(t)
	if w.DeployedOn(d.Edges[0].Name()) || w.DeployedOn(d.Edges[1].Name()) {
		t.Fatal("deferred wiring deployed replicas eagerly")
	}
	if rw.Propagators() != 1 {
		t.Fatalf("propagators = %d", rw.Propagators())
	}
	// Writes succeed with zero push fan-out.
	var writeCost time.Duration
	RunWarm(d.Env, "writer", func(p *sim.Proc) {
		start := p.Now()
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), container.State{"qty": sqldb.Int(1)}); err != nil {
			t.Errorf("update: %v", err)
		}
		writeCost = p.Now() - start
	})
	if writeCost >= 100*time.Millisecond {
		t.Fatalf("write with no replicas cost %v, want local", writeCost)
	}
}

func TestExtendToAtRuntime(t *testing.T) {
	d, rw, w := deferredFixture(t)
	edge := d.Edges[0]
	RunWarm(d.Env, "runtime", func(p *sim.Proc) {
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
	// The other edge remains unwired: pushes target only edge1.
	if w.DeployedOn(d.Edges[1].Name()) {
		t.Fatal("unrequested edge got wired")
	}
}

func TestAutoWireWithMaxStalenessSetsTTL(t *testing.T) {
	d, rw := wireFixture(t)
	_ = rw
	w, err := AutoWire(d, &container.ExtendedDescriptor{
		Topic: "t",
		Replicas: []container.ReplicaSpec{
			{Bean: "ItemRW", Update: container.AsyncUpdate, MaxStaleness: 30 * time.Second},
		},
	}, WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Edges {
		if ttl := w.Replica(e.Name(), "ItemRW").TTL(); ttl != 30*time.Second {
			t.Fatalf("%s TTL = %v", e.Name(), ttl)
		}
	}
	d.Env.Close()
}
