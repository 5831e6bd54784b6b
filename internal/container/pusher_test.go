package container

import (
	"strings"
	"testing"
	"time"

	"wadeploy/internal/jms"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/trace"
	"wadeploy/internal/web"
)

// pushRow is one (transport, window) row of the Pusher's table.
type pushRow struct {
	name   string
	topic  string
	window time.Duration
	family string // the one metric family the row may register and move
	sent   string // the family's delivered-message counter
}

var pushRows = []pushRow{
	{"sync", "", 0, "container_sync_push", "container_sync_pushes_total"},
	{"lease", "", 200 * time.Millisecond, "push_batch_", "push_batch_messages_total"},
	{"async", "updates", 0, "container_async_publishes", "container_async_publishes_total"},
	{"async-batched", "updates", 200 * time.Millisecond, "push_batch_", "push_batch_messages_total"},
}

var pushFamilies = []string{"container_sync_push", "container_async_publishes", "push_batch_"}

// edgeUpdater is the fixture's one RMI destination.
var edgeUpdater = PushTarget{Server: "edge", Facade: "Updater"}

// newPusher builds a pusher on srv and attaches the RMI targets.
func newPusher(t testing.TB, srv *Server, topic string, window time.Duration, targets ...PushTarget) *Pusher {
	t.Helper()
	ps, err := NewPusher(srv, topic, window)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range targets {
		ps.AddTarget(tg)
	}
	return ps
}

// wireRow deploys InvRW on main and a push-fed replica of it on edge, joined
// by one pusher of the given row: over the edge's updater façade, or over the
// topic and an update subscriber.
func wireRow(main, edge *Server, row pushRow) (rw *RWEntity, ro *ROEntity, ps *Pusher, err error) {
	if rw, err = DeployRWEntity(main, "InvRW", "inventory", "item_id"); err != nil {
		return
	}
	if ro, err = DeployROEntity(edge, "InvRO", "InvRW", nil); err != nil {
		return
	}
	uf, err := DeployUpdaterFacade(edge, "Updater")
	if err != nil {
		return
	}
	uf.Register("InvRW", ro)
	if ps, err = NewPusher(main, row.topic, row.window); err != nil {
		return
	}
	if row.topic == "" {
		ps.AddTarget(edgeUpdater)
	} else if _, err = DeployUpdateSubscriber(edge, "Sub", row.topic, uf); err != nil {
		return
	}
	rw.AddPropagator(ps)
	return
}

// wirePusher is wireRow on the test fixture, with delta pushes and both seeded
// entities preloaded at the replica.
func wirePusher(t *testing.T, f *fixture, row pushRow) (*RWEntity, *ROEntity, *Pusher) {
	t.Helper()
	rw, ro, ps, err := wireRow(f.main, f.edge, row)
	if err != nil {
		t.Fatal(err)
	}
	rw.SetDeltaPush(true)
	ro.Preload(sqldb.Str("i1"), State{"item_id": sqldb.Str("i1"), "qty": sqldb.Int(10)})
	ro.Preload(sqldb.Str("i2"), State{"item_id": sqldb.Str("i2"), "qty": sqldb.Int(5)})
	return rw, ro, ps
}

func peekQty(ro *ROEntity, pk string) int64 {
	st, _ := ro.Peek(sqldb.Str(pk))
	return st.Get("qty").AsInt()
}

// TestPusherRows drives the same six commits (five to i1, one to i2, back to
// back) through each (transport, window) row and checks what the row decides:
// who blocks, how many messages reach the destination, and which metric
// family registers and moves. Every row converges to the last written values.
func TestPusherRows(t *testing.T) {
	for _, row := range pushRows {
		t.Run(row.name, func(t *testing.T) {
			f := newFixture(t)
			rw, ro, _ := wirePusher(t, f, row)
			var fastest, slowest time.Duration
			var seenAtReturn int64
			f.run(t, func(p *sim.Proc) {
				commit := func(pk string, qty int64) {
					start := p.Now()
					if _, err := rw.UpdateFields(p, sqldb.Str(pk), State{"qty": sqldb.Int(qty)}); err != nil {
						t.Errorf("update: %v", err)
					}
					cost := p.Now() - start
					if fastest == 0 || cost < fastest {
						fastest = cost
					}
					if cost > slowest {
						slowest = cost
					}
				}
				for i := int64(1); i <= 5; i++ {
					commit("i1", 100+i)
				}
				commit("i2", 50)
				seenAtReturn = peekQty(ro, "i1")
				p.Sleep(time.Second) // window flush + WAN delivery
				if peekQty(ro, "i1") != 105 || peekQty(ro, "i2") != 50 {
					t.Errorf("replica after the drain: i1=%d i2=%d, want 105/50", peekQty(ro, "i1"), peekQty(ro, "i2"))
				}
			})

			// Who blocks: only (RMI, 0) holds the writer for the WAN round
			// trip, and only there is the replica current when the write
			// returns (zero staleness).
			if row.name == "sync" {
				if fastest < 200*time.Millisecond {
					t.Errorf("fastest commit %v, want >= WAN RTT (writer must block)", fastest)
				}
				if seenAtReturn != 105 {
					t.Errorf("replica qty = %d when the write returned, want 105", seenAtReturn)
				}
			} else {
				if slowest >= 100*time.Millisecond {
					t.Errorf("slowest commit %v; the writer must not wait for WAN delivery", slowest)
				}
				if seenAtReturn != 10 {
					t.Errorf("replica qty = %d when the write returned, want the preloaded 10", seenAtReturn)
				}
			}

			// Messages per destination: one per commit without a window; one
			// per window with it, carrying one coalesced delta per entity.
			snap := f.env.Metrics().Snapshot()
			msgs, applied := int64(6), int64(6)
			if row.window > 0 {
				msgs, applied = 1, 2
			}
			if got := snap.Counter(row.sent); got != msgs {
				t.Errorf("%s = %d, want %d", row.sent, got, msgs)
			}
			if got, pushes := snap.Counter("container_updates_applied_total"), snap.Counter("container_replica_pushes_total"); got != applied || pushes != applied {
				t.Errorf("applied=%d pushes=%d, want %d/%d", got, pushes, applied, applied)
			}
			if delivered := snap.Counter("jms_delivered_total"); row.topic != "" && delivered != msgs {
				t.Errorf("jms delivered = %d, want %d", delivered, msgs)
			}
			if row.window > 0 {
				if c, m, fl := snap.Counter("push_batch_commits_total"), snap.Counter("push_batch_coalesced_total"), snap.Counter("push_batch_flushes_total"); c != 6 || m != 4 || fl != 1 {
					t.Errorf("commits=%d coalesced=%d flushes=%d, want 6/4/1", c, m, fl)
				}
				one := Update{Delta: true, State: State{"qty": sqldb.Int(0)}.row()}
				if got, want := snap.Counter("push_batch_bytes_total"), int64(2*one.WireBytes()); got != want {
					t.Errorf("push_batch_bytes_total = %d, want two one-field deltas = %d", got, want)
				}
			}

			// Which family moved: the row's own, and no other is registered.
			for _, fam := range pushFamilies {
				registered := false
				for _, c := range snap.Counters {
					registered = registered || strings.HasPrefix(c.Name, fam)
				}
				if registered != (fam == row.family) {
					t.Errorf("family %s* registered = %v on row %s", fam, registered, row.name)
				}
			}
			if h := snap.Histogram("container_sync_push_ns"); (h != nil) != (row.name == "sync") || (h != nil && h.Count != 6) {
				t.Errorf("container_sync_push_ns = %+v on row %s", h, row.name)
			}
		})
	}
}

// A blocking pusher with no targets yet (a deferred wiring) still opens its
// fan-out span and records its latency sample.
func TestPusherWithoutTargetsRecordsFanOut(t *testing.T) {
	f := newFixture(t)
	rw, err := DeployRWEntity(f.main, "InvRW", "inventory", "item_id")
	if err != nil {
		t.Fatal(err)
	}
	rw.AddPropagator(newPusher(t, f.main, "", 0))
	spans := tracedCommit(t, f, rw)
	if !spans["push/sync fan-out"] {
		t.Fatalf("spans = %v, want push/sync fan-out", spans)
	}
	if h := f.env.Metrics().Snapshot().Histogram("container_sync_push_ns"); h == nil || h.Count != 1 {
		t.Fatalf("container_sync_push_ns = %+v, want one sample", h)
	}
}

// tracedCommit runs one traced write to i1 and returns the "layer/label" set
// of the spans it recorded.
func tracedCommit(t *testing.T, f *fixture, rw *RWEntity) map[string]bool {
	t.Helper()
	spans := make(map[string]bool)
	tr := trace.New(f.env, trace.Options{OnFinish: func(tc *trace.Trace) {
		for _, s := range tc.Spans {
			spans[s.Layer+"/"+s.Label] = true
		}
	}})
	f.run(t, func(p *sim.Proc) {
		end := tr.StartPage(p, trace.PageTraceID(1, 1), "writer", "commit", "main", true)
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(1)}); err != nil {
			t.Errorf("update: %v", err)
		}
		end()
	})
	return spans
}

// The spans a commit can reach keep their layer and label (a flush runs on
// processes no page is waiting for, so its spans never attach to a trace).
func TestPusherSpanLabels(t *testing.T) {
	cases := []struct {
		row  pushRow
		want []string
	}{
		{pushRows[0], []string{"push/sync fan-out"}},
		{pushRows[2], []string{"jms/publish updates"}},
	}
	for _, c := range cases {
		f := newFixture(t)
		rw, _, _ := wirePusher(t, f, c.row)
		spans := tracedCommit(t, f, rw)
		for _, want := range c.want {
			if !spans[want] {
				t.Errorf("row %s: spans = %v, want %s", c.row.name, spans, want)
			}
		}
	}
}

// Partition filters are honoured at the source on both RMI rows: a write
// outside the edge's slice sends the edge nothing — no blocking round trip on
// the sync row, no message for the window on the lease row.
func TestPusherFilterAtSource(t *testing.T) {
	for _, row := range pushRows[:2] {
		t.Run(row.name, func(t *testing.T) {
			f := newFixture(t)
			rw, ro, ps := wirePusher(t, f, row)
			spec := &PartitionSpec{Scheme: HashPartition, Partitions: 2}
			ps.SetTargetPartitions(edgeUpdater, spec, []int{1}) // "i1" only
			write := func(pk string, qty int64) time.Duration {
				var cost time.Duration
				f.run(t, func(p *sim.Proc) {
					start := p.Now()
					if _, err := rw.UpdateFields(p, sqldb.Str(pk), State{"qty": sqldb.Int(qty)}); err != nil {
						t.Errorf("update %s: %v", pk, err)
					}
					cost = p.Now() - start
				})
				return cost // f.run drains the simulation: any window has flushed
			}
			if outside := write("i2", 1); outside >= 100*time.Millisecond {
				t.Fatalf("out-of-slice write cost %v; a filtered target must not be pushed", outside)
			}
			if got := f.env.Metrics().Snapshot().Counter(row.sent); got != 0 {
				t.Fatalf("%s = %d after an out-of-slice write, want no message", row.sent, got)
			}
			write("i1", 7)
			if applied, pushes := f.count("container_updates_applied_total"), f.count("container_replica_pushes_total"); applied != 1 || pushes != 1 {
				t.Fatalf("applied=%d pushes=%d, want 1/1 (only the owned write leaves main)", applied, pushes)
			}
			if peekQty(ro, "i1") != 7 || peekQty(ro, "i2") != 5 {
				t.Fatalf("replica i1=%d i2=%d, want 7 and the preloaded 5", peekQty(ro, "i1"), peekQty(ro, "i2"))
			}
			// Clearing the scope restores full propagation.
			ps.SetTargetPartitions(edgeUpdater, nil, nil)
			write("i2", 9)
			if pushes := f.count("container_replica_pushes_total"); pushes != 2 || peekQty(ro, "i2") != 9 {
				t.Fatalf("pushes=%d i2=%d after filter removal, want 2 and 9", pushes, peekQty(ro, "i2"))
			}
		})
	}
}

// One sizing rule on every row: an unbatched publish, like every other
// message, prices each update at its WireBytes, a delta by its fields and a
// full-state update at FullStateBytes.
func TestPusherUnbatchedPublishSizesByPayload(t *testing.T) {
	delta := Update{Bean: "InvRW", PK: sqldb.Str("i1"), Delta: true, State: State{"qty": sqldb.Int(1)}.row()}
	cases := []struct {
		name string
		u    Update
		want int
	}{
		{"full", Update{Bean: "InvRW", PK: sqldb.Str("i1"), State: State{"qty": sqldb.Int(1)}.row()}, FullStateBytes},
		{"delta", delta, delta.WireBytes()},
	}
	for _, c := range cases {
		f := newFixture(t)
		ps := newPusher(t, f.main, "updates", 0)
		got := -1
		if err := f.jms.Subscribe("updates", "edge", "probe", func(_ *sim.Proc, msg *jms.Message) { got = msg.Bytes }); err != nil {
			t.Fatal(err)
		}
		f.run(t, func(p *sim.Proc) {
			if err := ps.Propagate(p, []Update{c.u}); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		})
		if got != c.want {
			t.Errorf("%s: message of %d bytes, want %d", c.name, got, c.want)
		}
	}
}

func TestPusherSeparateWindows(t *testing.T) {
	f := newFixture(t)
	rw, ro, _ := wirePusher(t, f, pushRow{window: 50 * time.Millisecond})
	f.run(t, func(p *sim.Proc) {
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(1)}); err != nil {
			t.Errorf("update: %v", err)
		}
		p.Sleep(500 * time.Millisecond) // window 1 flushed, pusher idle
		if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(2)}); err != nil {
			t.Errorf("update: %v", err)
		}
		p.Sleep(500 * time.Millisecond)
		st, err := ro.Get(p, sqldb.Str("i1"))
		if err != nil || st.Get("qty").AsInt() != 2 {
			t.Errorf("i1: %v, %v (want qty 2)", st, err)
		}
	})
	snap := f.env.Metrics().Snapshot()
	if fl, m := snap.Counter("push_batch_flushes_total"), snap.Counter("push_batch_messages_total"); fl != 2 || m != 2 {
		t.Fatalf("flushes=%d messages=%d, want 2/2 (idle gap must close the window)", fl, m)
	}
}

func TestPusherValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := NewPusher(f.main, "", -time.Second); err == nil {
		t.Fatal("negative window accepted")
	}
	noJMS, err := NewServer(Config{
		Name: "edge", DBNode: "main", DB: f.db, Net: f.net, RMI: f.rt,
		Web: web.DefaultOptions,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []time.Duration{0, time.Second} {
		if _, err := NewPusher(noJMS, "t", window); err == nil {
			t.Fatalf("topic pusher (window %v) without a JMS provider accepted", window)
		}
	}
}

// The coalescing hot path (a same-key delta folding into an already-pending
// update inside an armed window) must stay allocation-flat: the pending row
// is copied once, on its first merge, and every later delta folds into that
// copy in place (0 measured; the ceiling leaves room for one).
func TestPusherCoalesceAllocs(t *testing.T) {
	f := newFixture(t)
	ps := newPusher(t, f.main, "", time.Second, edgeUpdater)
	seedBatch := []Update{{Bean: "Inv", PK: sqldb.Str("i1"), Delta: true, State: State{"qty": sqldb.Int(0)}.row()}}
	if err := ps.Propagate(nil, seedBatch); err != nil { // arms the window, inserts the pending entry
		t.Fatal(err)
	}
	batch := []Update{{Bean: "Inv", PK: sqldb.Str("i1"), Delta: true, State: State{"qty": sqldb.Int(1)}.row()}}
	allocs := testing.AllocsPerRun(200, func() {
		if err := ps.Propagate(nil, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("coalescing a pending same-key delta allocates %.1f times per commit, want <= 1", allocs)
	}
}

// TestCoalescerHandsOffIntactBatches: a window's batch is handed off
// full-capped, and the next window fills the other buffer, so a delivery that
// copies its batch when it starts never reads the next window's updates.
func TestCoalescerHandsOffIntactBatches(t *testing.T) {
	var c coalescer
	up := func(pk, qty int64) Update {
		return Update{Bean: "Inv", PK: sqldb.Int(pk), State: State{"qty": sqldb.Int(qty)}.row()}
	}
	var handed [][]Update
	for w := int64(0); w < 4; w++ {
		c.add(up(w, w))
		c.add(up(w+10, w))
		batch := c.take()
		if len(batch) != 2 || cap(batch) != 2 {
			t.Fatalf("window %d: handed off %d updates with capacity %d, want 2 full-capped", w, len(batch), cap(batch))
		}
		handed = append(handed, batch)
		if w > 0 {
			if prev := handed[w-1]; prev[0].PK.AsInt() != w-1 || prev[1].PK.AsInt() != w+9 {
				t.Fatalf("window %d overwrote the batch window %d handed off: %v", w, w-1, prev)
			}
		}
	}
}
