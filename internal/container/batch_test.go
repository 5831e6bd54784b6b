package container

import (
	"errors"
	"strings"
	"testing"
	"time"

	"wadeploy/internal/sqldb"
)

// TestExtendedDescriptorValidateReplicationRules is the Validate table for
// a replica's Propagation: every combination is a method of update the
// Pusher runs, so only a topic-less async and negative durations fail.
func TestExtendedDescriptorValidateReplicationRules(t *testing.T) {
	cases := []struct {
		topic string
		p     Propagation
		want  string // "" accepts
	}{
		{"", Propagation{}, ""},
		{"", Propagation{Window: 100 * time.Millisecond, Delta: true, MaxStaleness: time.Second}, ""},
		{"t", Propagation{Async: true}, ""},
		{"t", Propagation{Async: true, Window: 100 * time.Millisecond}, ""},
		{"", Propagation{Async: true}, "async update requires a topic"},
		{"", Propagation{Window: -1}, "negative window"},
		{"", Propagation{MaxStaleness: -1}, "negative max staleness"},
	}
	for _, c := range cases {
		d := &ExtendedDescriptor{Topic: c.topic, Replicas: []ReplicaSpec{{Bean: "A", Update: c.p}}}
		err := d.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v (topic %q): rejected: %v", c.p, c.topic, err)
		case c.want != "" && !errors.Is(err, ErrBadDescriptor):
			t.Errorf("%+v (topic %q): err = %v, want ErrBadDescriptor", c.p, c.topic, err)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%+v (topic %q): err = %v, want substring %q", c.p, c.topic, err, c.want)
		}
	}
}

func TestCoalesceUpdatesLastWriterWins(t *testing.T) {
	in := []Update{
		{Bean: "A", PK: sqldb.Str("1"), Delta: true, State: State{"x": sqldb.Int(1)}.row(), CommittedAt: 1},
		{Bean: "B", PK: sqldb.Str("1"), Delta: true, State: State{"x": sqldb.Int(7)}.row(), CommittedAt: 2},
		{Bean: "A", PK: sqldb.Str("1"), Delta: true, State: State{"y": sqldb.Int(2)}.row(), CommittedAt: 3},
		{Bean: "A", PK: sqldb.Str("1"), Delta: true, State: State{"x": sqldb.Int(9)}.row(), CommittedAt: 4},
	}
	out := CoalesceUpdates(in)
	if len(out) != 2 {
		t.Fatalf("coalesced to %d updates, want 2", len(out))
	}
	// First appearance order: A before B.
	a := out[0]
	if a.Bean != "A" || a.State.Get("x").AsInt() != 9 || a.State.Get("y").AsInt() != 2 || a.CommittedAt != 4 {
		t.Fatalf("A coalesced wrong: %+v", a)
	}
	if out[1].Bean != "B" || out[1].State.Get("x").AsInt() != 7 {
		t.Fatalf("B coalesced wrong: %+v", out[1])
	}
	// Input must not be mutated (every propagator sees the same entries).
	if in[0].State.Get("x").AsInt() != 1 || in[0].State.Len() != 1 {
		t.Fatalf("input update mutated: %+v", in[0])
	}
}
