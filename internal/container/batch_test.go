package container

import (
	"errors"
	"strings"
	"testing"
	"time"

	"wadeploy/internal/sqldb"
)

func TestExtendedDescriptorValidateReplicationRules(t *testing.T) {
	good := []*ExtendedDescriptor{
		{Replicas: []ReplicaSpec{{Bean: "A", Update: LeaseUpdate, MaxStaleness: time.Second}}},
		{Replicas: []ReplicaSpec{{Bean: "A", Update: LeaseUpdate, BatchWindow: 100 * time.Millisecond}}},
		{Topic: "t", Replicas: []ReplicaSpec{{Bean: "A", Update: AsyncUpdate, BatchWindow: 100 * time.Millisecond}}},
	}
	for i, d := range good {
		if err := d.Validate(); err != nil {
			t.Errorf("good[%d]: rejected: %v", i, err)
		}
	}
	bad := []struct {
		d    *ExtendedDescriptor
		want string
	}{
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A"}}}, "update mode not set"},
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A", Update: SyncUpdate, MaxStaleness: -1}}}, "negative max staleness"},
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A", Update: SyncUpdate, BatchWindow: -1}}}, "negative batch window"},
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A", Update: LeaseUpdate}}}, "staleness budget"},
		{&ExtendedDescriptor{Replicas: []ReplicaSpec{{Bean: "A", Update: SyncUpdate, BatchWindow: time.Second}}}, "sync updates are unbatched"},
	}
	for i, c := range bad {
		err := c.d.Validate()
		if !errors.Is(err, ErrBadDescriptor) {
			t.Errorf("bad[%d]: err = %v, want ErrBadDescriptor", i, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("bad[%d]: err = %v, want substring %q", i, err, c.want)
		}
	}
	if LeaseUpdate.String() != "lease" {
		t.Fatalf("LeaseUpdate.String() = %q", LeaseUpdate.String())
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
