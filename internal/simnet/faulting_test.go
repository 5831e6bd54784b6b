package simnet

import (
	"errors"
	"testing"
	"time"

	"wadeploy/internal/sim"
)

// TestTransferTakesAlternatePathWhileLinkDown pins that a blocking Transfer
// reroutes around a downed link: with a-b cut, traffic flows a-c-b and pays
// the detour's latency, and the direct route returns when the link heals.
func TestTransferTakesAlternatePathWhileLinkDown(t *testing.T) {
	env := sim.NewEnv(1)
	n := buildTriangle(t, env)
	if err := n.SetLinkState("a", "b", false); err != nil {
		t.Fatal(err)
	}
	env.Spawn("xfer", func(p *sim.Proc) {
		start := p.Now()
		if err := n.Transfer(p, "a", "b", 0); err != nil {
			t.Errorf("transfer during detour: %v", err)
			return
		}
		// a-c-b is 50+10 ms; the direct 10 ms route is down.
		if got := p.Now() - start; got != 60*time.Millisecond {
			t.Errorf("detour transfer took %v, want 60ms via c", got)
		}
		if err := n.SetLinkState("a", "b", true); err != nil {
			t.Error(err)
			return
		}
		start = p.Now()
		if err := n.Transfer(p, "a", "b", 0); err != nil {
			t.Errorf("transfer after heal: %v", err)
			return
		}
		if got := p.Now() - start; got != 10*time.Millisecond {
			t.Errorf("healed transfer took %v, want 10ms direct", got)
		}
	})
	env.RunAll()
	env.Close()
}

// TestFlapMidTransfer pins the cut-through contract under link flapping: a
// transfer whose delay was computed before the link dropped completes (the
// message is already in flight), a transfer issued while the link is down
// fails with UnreachableError, and transfers issued after the flap ends see
// nominal timing again.
func TestFlapMidTransfer(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env)
	for _, id := range []string{"a", "b"} {
		if _, err := n.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	// 1 KB/s: a 1000-byte message serializes for a full second, so the
	// flap lands mid-transfer.
	if _, err := n.AddLink("a", "b", 10*time.Millisecond, 1e3); err != nil {
		t.Fatal(err)
	}
	env.At(500*time.Millisecond, func() {
		if err := n.SetLinkState("a", "b", false); err != nil {
			t.Error(err)
		}
	})
	env.At(2*time.Second, func() {
		if err := n.SetLinkState("a", "b", true); err != nil {
			t.Error(err)
		}
	})
	env.Spawn("xfer", func(p *sim.Proc) {
		start := p.Now()
		if err := n.Transfer(p, "a", "b", 1000); err != nil {
			t.Errorf("in-flight transfer: %v", err)
			return
		}
		// 1s serialization + 10ms propagation, unaffected by the flap.
		if got := p.Now() - start; got != 1010*time.Millisecond {
			t.Errorf("in-flight transfer took %v, want 1.01s", got)
		}
		// Still inside the down window: new sends fail fast.
		err := n.Transfer(p, "a", "b", 10)
		var ue *UnreachableError
		if !errors.As(err, &ue) {
			t.Errorf("transfer during flap = %v, want UnreachableError", err)
		}
		p.Sleep(time.Second + 10*time.Millisecond) // past the heal at t=2s
		start = p.Now()
		if err := n.Transfer(p, "a", "b", 0); err != nil {
			t.Errorf("transfer after flap: %v", err)
			return
		}
		if got := p.Now() - start; got != 10*time.Millisecond {
			t.Errorf("post-flap transfer took %v, want 10ms", got)
		}
	})
	env.RunAll()
	env.Close()
}

// TestBulkTransferSurfacesMidTransferLinkDown pins the contract the live-
// migration path depends on, alongside TestFlapMidTransfer's cut-through
// rule for ordinary messages: when SetLinkState downs the link while a bulk
// state transfer is in flight, TransferBulk fails promptly with a retryable
// *BulkError carrying the resume offset (fully delivered chunks only) rather
// than silently stalling the lane, and retrying the remaining bytes after
// the heal completes the transfer.
func TestBulkTransferSurfacesMidTransferLinkDown(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env)
	for _, id := range []string{"a", "b"} {
		if _, err := n.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	// 1 KB/s: each 500-byte chunk serializes for half a second, so the
	// link-down at t=1.25s lands while chunk 3 is on the wire.
	if _, err := n.AddLink("a", "b", 10*time.Millisecond, 1e3); err != nil {
		t.Fatal(err)
	}
	env.At(1250*time.Millisecond, func() {
		if err := n.SetLinkState("a", "b", false); err != nil {
			t.Error(err)
		}
	})
	env.At(2*time.Second, func() {
		if err := n.SetLinkState("a", "b", true); err != nil {
			t.Error(err)
		}
	})
	env.Spawn("bulk", func(p *sim.Proc) {
		err := n.TransferBulk(p, "a", "b", 3000, 500)
		var be *BulkError
		if !errors.As(err, &be) {
			t.Fatalf("bulk transfer across link-down = %v, want *BulkError", err)
		}
		var ue *UnreachableError
		if !errors.As(be, &ue) {
			t.Errorf("BulkError cause = %v, want UnreachableError", be.Err)
		}
		// Chunks 1 and 2 (1000 bytes) were delivered before the drop;
		// chunk 3 was on the wire when the link died and is charged lost.
		if be.Sent != 1000 {
			t.Errorf("BulkError.Sent = %d, want 1000", be.Sent)
		}
		// Retrying while the link is still down fails fast, zero progress.
		err = n.TransferBulk(p, "a", "b", 3000-be.Sent, 500)
		var be2 *BulkError
		if !errors.As(err, &be2) || be2.Sent != 0 {
			t.Errorf("retry during outage = %v, want immediate *BulkError with Sent=0", err)
		}
		p.Sleep(2*time.Second - p.Now() + time.Millisecond) // past the heal
		if err := n.TransferBulk(p, "a", "b", 3000-be.Sent, 500); err != nil {
			t.Errorf("resumed transfer after heal: %v", err)
		}
	})
	env.RunAll()
	env.Close()
}

// TestNodeDownBlocksTransit pins SetNodeState routing: a downed node carries
// no transit traffic, endpoints behind it become unreachable, and recovery
// restores the original routes.
func TestNodeDownBlocksTransit(t *testing.T) {
	env := sim.NewEnv(1)
	n := buildTriangle(t, env)
	// a->c normally routes via b (20ms). With b down it must fall back to
	// the direct 50ms link.
	if err := n.SetNodeState("b", false); err != nil {
		t.Fatal(err)
	}
	lat, err := n.Route("a", "c").Latency()
	if err != nil {
		t.Fatal(err)
	}
	if lat != 50*time.Millisecond {
		t.Fatalf("latency a->c with b down = %v, want 50ms direct", lat)
	}
	// The downed node itself is unreachable as an endpoint.
	if _, err := n.Route("a", "b").Latency(); err == nil {
		t.Fatal("downed node reachable as endpoint")
	}
	if err := n.SetNodeState("b", true); err != nil {
		t.Fatal(err)
	}
	lat, err = n.Route("a", "c").Latency()
	if err != nil {
		t.Fatal(err)
	}
	if lat != 20*time.Millisecond {
		t.Fatalf("latency a->c after recovery = %v, want 20ms via b", lat)
	}
}
