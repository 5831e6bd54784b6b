package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

// TestAutoWireResolvesPusherRows: each row of the Pusher doc table, stated
// as a replica's Propagation, wires that row's pusher: its transport, its
// window and its metric family. (TestAutoWireWithMaxStalenessSetsTTL pins
// MaxStaleness as the replicas' TTL.)
func TestAutoWireResolvesPusherRows(t *testing.T) {
	const window = time.Second
	rows := []struct {
		name    string
		update  container.Propagation
		counter string
		blocks  bool
	}{
		{"rmi/0", container.Propagation{}, "container_sync_pushes_total", true},
		{"rmi/w", container.Propagation{Window: window}, "push_batch_commits_total", false},
		{"jms/0", container.Propagation{Async: true}, "container_async_publishes_total", false},
		{"jms/w", container.Propagation{Async: true, Window: window}, "push_batch_commits_total", false},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			d, rw := wireFixture(t)
			defer d.Env.Close()
			w, err := AutoWire(d, &container.ExtendedDescriptor{
				Topic:    "item-updates",
				Replicas: []container.ReplicaSpec{{Bean: "ItemRW", Update: r.update}},
			}, WireOptions{}, d.Edges...)
			if err != nil {
				t.Fatal(err)
			}
			if r.update.Async {
				if len(w.rmiPushers) != 0 || w.topicPushers[r.update.Window] == nil {
					t.Fatalf("want one topic pusher with window %v, got %d RMI and topic windows %v", r.update.Window, len(w.rmiPushers), w.topicPushers)
				}
			} else if len(w.topicPushers) != 0 || w.rmiPushers["ItemRW"] == nil {
				t.Fatalf("want one RMI pusher, got %d RMI and %d topic", len(w.rmiPushers), len(w.topicPushers))
			}
			ro := w.Replica(d.Edges[0].Name(), "ItemRW")
			runWarm(d.Env, "writer", func(p *sim.Proc) {
				start := p.Now()
				if _, err := rw.UpdateFields(p, sqldb.Str("i1"), container.State{"qty": sqldb.Int(9)}); err != nil {
					t.Errorf("update: %v", err)
				}
				if blocked := p.Now()-start >= 200*time.Millisecond; blocked != r.blocks {
					t.Errorf("writer blocked on the edges: %v, want %v", blocked, r.blocks)
				}
				// Half a window on, a windowed row has not flushed; an
				// unwindowed one has delivered.
				p.Sleep(window / 2)
				if fresh := peekQty(ro, "i1") == 9; fresh != (r.update.Window == 0) {
					t.Errorf("replica fresh %v after %v, want %v", fresh, window/2, r.update.Window == 0)
				}
			})
			reg := d.Env.Metrics()
			if peekQty(ro, "i1") != 9 || reg.CounterValue(r.counter) == 0 {
				t.Fatalf("after the run: qty %d, %s = %d", peekQty(ro, "i1"), r.counter, reg.CounterValue(r.counter))
			}
		})
	}
}

// TestAutoWirePropagationOverride: a deployment echoes its Propagation
// override, and AutoWire puts it in place of every spec's method of update
// whole, so none of a spec's own values survive; the spec keeps its
// partitioning and the descriptor stays as written.
func TestAutoWirePropagationOverride(t *testing.T) {
	override := &container.Propagation{Async: true, Window: 250 * time.Millisecond}
	opts := DefaultOptions()
	opts.Propagation = override
	d, err := NewPaperDeployment(sim.NewEnv(11), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Env.Close()
	if d.Propagation != override {
		t.Fatal("deployment does not echo its propagation override")
	}
	itemFixture(t, d)
	other, err := container.DeployRWEntity(d.Main, "OtherRW", "item", "id")
	if err != nil {
		t.Fatal(err)
	}
	d.RegisterRW(other)
	ext := &container.ExtendedDescriptor{
		Topic: "item-updates",
		Replicas: []container.ReplicaSpec{
			{Bean: "ItemRW", Update: container.Propagation{Delta: true, MaxStaleness: time.Second},
				Partition: &container.PartitionSpec{Scheme: container.HashPartition, Partitions: 2}},
			{Bean: "OtherRW"},
		},
	}
	written := slices.Clone(ext.Replicas)
	w, err := AutoWire(d, ext, WireOptions{}, d.Edges...)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ext.Replicas, written) {
		t.Fatalf("descriptor mutated: %+v, want %+v", ext.Replicas, written)
	}
	for i, spec := range w.ext.Replicas {
		if want := (container.ReplicaSpec{Bean: written[i].Bean, Update: *override, Partition: written[i].Partition}); spec != want {
			t.Errorf("wired spec %d = %+v, want %+v", i, spec, want)
		}
	}
	if len(w.rmiPushers) != 0 || len(w.topicPushers) != 1 || w.topicPushers[override.Window] == nil {
		t.Fatalf("want both beans on one topic pusher with window %v, got %d RMI and topic windows %v", override.Window, len(w.rmiPushers), w.topicPushers)
	}

	// The substituted descriptor is what Validate checks: the async
	// override needs a topic even where every spec it replaces is sync.
	if _, err := AutoWire(d, &container.ExtendedDescriptor{Replicas: []container.ReplicaSpec{{Bean: "ItemRW"}}}, WireOptions{}); !errors.Is(err, container.ErrBadDescriptor) {
		t.Fatalf("async override on a descriptor without a topic: err = %v, want ErrBadDescriptor", err)
	}
}
