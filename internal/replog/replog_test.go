package replog

import (
	"errors"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/metrics"
	"wadeploy/internal/sqldb"
)

func upd(bean string, pk string, field string, v int64) container.Update {
	return container.Update{
		Bean: bean, PK: sqldb.Str(pk), Delta: true,
		State: container.RowOf(&[]string{field}, []sqldb.Value{sqldb.Int(v)}),
	}
}

func TestLogAppendSinceHead(t *testing.T) {
	s := NewStore(metrics.NewRegistry(nil), 0)
	l := s.Log("A")
	if l.Head() != 0 || l.Len() != 0 {
		t.Fatalf("fresh log head=%d len=%d", l.Head(), l.Len())
	}
	for i := 1; i <= 5; i++ {
		if seq := l.Append(upd("A", "1", "x", int64(i))); seq != uint64(i) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
	}
	if l.Head() != 5 {
		t.Fatalf("head = %d, want 5", l.Head())
	}
	ents, err := l.Since(3)
	if err != nil || len(ents) != 2 || ents[0].Seq != 4 || ents[1].Seq != 5 {
		t.Fatalf("Since(3) = %v, %v", ents, err)
	}
	ents, err = l.Since(5)
	if err != nil || len(ents) != 0 {
		t.Fatalf("Since(head) = %v, %v, want empty", ents, err)
	}
	if s.Appends() != 5 {
		t.Fatalf("store appends = %d, want 5", s.Appends())
	}
	if got := s.Beans(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("beans = %v", got)
	}
}

func TestLogCompaction(t *testing.T) {
	s := NewStore(metrics.NewRegistry(nil), 3)
	l := s.Log("A")
	for i := 1; i <= 10; i++ {
		l.Append(upd("A", "1", "x", int64(i)))
	}
	if l.Len() != 3 || l.Head() != 10 {
		t.Fatalf("len=%d head=%d, want 3/10", l.Len(), l.Head())
	}
	if _, err := l.Since(5); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Since below horizon: %v, want ErrCompacted", err)
	}
	ents, err := l.Since(7)
	if err != nil || len(ents) != 3 || ents[0].Seq != 8 {
		t.Fatalf("Since(7) = %v, %v", ents, err)
	}
}

func TestEpochSealsAndHeadAtEpoch(t *testing.T) {
	s := NewStore(metrics.NewRegistry(nil), 0)
	l := s.Log("A")
	l.Append(upd("A", "1", "x", 1))
	l.Append(upd("A", "1", "x", 2))
	if e := s.SealEpoch(); e != 1 {
		t.Fatalf("first seal = %d", e)
	}
	l.Append(upd("A", "1", "x", 3))
	if e := s.SealEpoch(); e != 2 {
		t.Fatalf("second seal = %d", e)
	}
	l.Append(upd("A", "1", "x", 4))
	// A replica that acked epoch 1 replays everything after seq 2.
	if h := l.HeadAtEpoch(1); h != 2 {
		t.Fatalf("HeadAtEpoch(1) = %d, want 2", h)
	}
	if h := l.HeadAtEpoch(2); h != 3 {
		t.Fatalf("HeadAtEpoch(2) = %d, want 3", h)
	}
	// Unknown epochs: 0 (never acked) replays from the start; a future
	// epoch answers the newest seal.
	if h := l.HeadAtEpoch(0); h != 0 {
		t.Fatalf("HeadAtEpoch(0) = %d, want 0", h)
	}
	if h := l.HeadAtEpoch(99); h != 3 {
		t.Fatalf("HeadAtEpoch(99) = %d, want 3", h)
	}
	// A bean created after some seals replays from 0 for those epochs.
	b := s.Log("B")
	if h := b.HeadAtEpoch(2); h != 0 {
		t.Fatalf("late bean HeadAtEpoch(2) = %d, want 0", h)
	}
}

func TestCoalescedSince(t *testing.T) {
	s := NewStore(metrics.NewRegistry(nil), 0)
	l := s.Log("A")
	l.Append(upd("A", "1", "x", 1))
	l.Append(upd("A", "1", "x", 2))
	l.Append(upd("A", "2", "x", 7))
	l.Append(upd("A", "1", "y", 3))
	ups, err := l.CoalescedSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 {
		t.Fatalf("coalesced to %d updates, want 2", len(ups))
	}
	if ups[0].State.Get("x").AsInt() != 2 || ups[0].State.Get("y").AsInt() != 3 {
		t.Fatalf("pk 1 coalesced wrong: %+v", ups[0])
	}
	// Coalescing must not mutate the retained entries.
	if st := l.entries[0].Update.State; st.Len() != 1 || st.Get("x").AsInt() != 1 {
		t.Fatalf("log entry mutated by coalesce: %+v", st)
	}
	ups, err = l.CoalescedSince(l.Head())
	if err != nil || ups != nil {
		t.Fatalf("CoalescedSince(head) = %v, %v, want nil", ups, err)
	}
}

func TestRecorderAppendsPerBean(t *testing.T) {
	s := NewStore(metrics.NewRegistry(nil), 0)
	r := NewRecorder(s)
	if r.Store() != s {
		t.Fatal("recorder store mismatch")
	}
	err := r.Propagate(nil, []container.Update{
		upd("A", "1", "x", 1), upd("B", "1", "x", 2), upd("A", "2", "x", 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Log("A").Head() != 2 || s.Log("B").Head() != 1 {
		t.Fatalf("heads A=%d B=%d, want 2/1", s.Log("A").Head(), s.Log("B").Head())
	}
}

func TestStalenessBudget(t *testing.T) {
	if w := StalenessBudget(time.Second); w != 500*time.Millisecond {
		t.Fatalf("budget(1s) = %v", w)
	}
	if w := StalenessBudget(0); w != time.Millisecond {
		t.Fatalf("budget(0) = %v, want the 1ms floor", w)
	}
}
