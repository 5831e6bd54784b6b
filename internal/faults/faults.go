// Package faults is a scripted, seed-deterministic fault-injection engine
// for simnet topologies. A Schedule is a list of timed events — link
// outages, flaps, latency spikes with jitter, per-link loss probability,
// node crash/restart — that Arm translates into virtual-clock callbacks
// driving the network's mutable link-quality API.
//
// Determinism contract: all *timing* of fault events comes from the
// schedule itself (virtual-clock At callbacks), and all *randomness* (loss
// draws, jitter) comes from a dedicated RNG the network derives from the
// env seed (simnet.EnableFaults). Fault injection therefore never touches
// env.Rand, so the workload's arrival and think-time streams are exactly
// those of a fault-free run with the same seed, and a faulted run is
// replayable byte-identically at any -parallel setting.
package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"wadeploy/internal/simnet"
)

// Kind enumerates the supported fault event types.
type Kind string

const (
	// LinkDown takes a link out of service for Duration.
	LinkDown Kind = "link-down"
	// LinkFlap toggles a link down/up Cycles times across Duration,
	// ending up.
	LinkFlap Kind = "link-flap"
	// Latency multiplies a link's propagation delay by LatencyMult and
	// adds uniform jitter of up to JitterFrac of the effective latency.
	Latency Kind = "latency"
	// Drop makes a link lose each message with probability DropProb.
	Drop Kind = "drop"
	// NodeDown crashes a node for Duration; messages to, from or through
	// it fail until it restarts.
	NodeDown Kind = "node-down"
)

// Event is one timed fault. Link events name the link by its endpoints
// (either order); node events name the node.
type Event struct {
	Kind Kind
	A, B string // link endpoints, for link events
	Node string // node ID, for node-down

	At       time.Duration // virtual time the fault begins
	Duration time.Duration // how long it lasts; the revert fires at At+Duration

	LatencyMult float64 // latency: multiplier (> 0)
	JitterFrac  float64 // latency: extra uniform delay fraction
	DropProb    float64 // drop: per-message loss probability
	Cycles      int     // link-flap: number of down/up cycles (>= 1)
}

// Schedule is a named, validated set of fault events plus an optional
// observation window (used by the availability experiment to decide which
// part of the run to score).
type Schedule struct {
	Name   string
	Events []Event
	// Window, when non-zero, is the [start, end) interval of virtual time
	// that availability accounting should score (typically the span of
	// the main outage).
	Window [2]time.Duration
}

type eventJSON struct {
	Kind        string   `json:"kind"`
	Link        []string `json:"link,omitempty"`
	Node        string   `json:"node,omitempty"`
	AtMs        int64    `json:"at_ms"`
	DurationMs  int64    `json:"duration_ms"`
	LatencyMult float64  `json:"latency_mult,omitempty"`
	JitterFrac  float64  `json:"jitter_frac,omitempty"`
	DropProb    float64  `json:"drop_prob,omitempty"`
	Cycles      int      `json:"cycles,omitempty"`
}

type scheduleJSON struct {
	Name     string      `json:"name"`
	WindowMs []int64     `json:"window_ms,omitempty"`
	Events   []eventJSON `json:"events"`
}

// maxMs bounds every millisecond field of the JSON form (about 146 years):
// its conversion to a Duration cannot wrap, and At+Duration cannot overflow.
const maxMs = math.MaxInt64 / 2 / int64(time.Millisecond)

// millis converts one millisecond field, rejecting values beyond maxMs.
func millis(field string, ms int64) (time.Duration, error) {
	if ms > maxMs || ms < -maxMs {
		return 0, fmt.Errorf("faults: %s %d out of range (|%s| <= %d)", field, ms, field, maxMs)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// Parse decodes a schedule from its JSON form. Unknown fields are rejected
// so schedule typos fail loudly instead of silently injecting nothing.
func Parse(data []byte) (*Schedule, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var sj scheduleJSON
	if err := dec.Decode(&sj); err != nil {
		return nil, fmt.Errorf("faults: parse schedule: %w", err)
	}
	s := &Schedule{Name: sj.Name}
	if len(sj.WindowMs) != 0 && len(sj.WindowMs) != 2 {
		return nil, fmt.Errorf("faults: window_ms must have exactly 2 elements, got %d", len(sj.WindowMs))
	}
	for i, ms := range sj.WindowMs {
		var err error
		if s.Window[i], err = millis("window_ms", ms); err != nil {
			return nil, err
		}
	}
	for i, ej := range sj.Events {
		at, err := millis("at_ms", ej.AtMs)
		if err != nil {
			return nil, fmt.Errorf("%w (event %d)", err, i)
		}
		dur, err := millis("duration_ms", ej.DurationMs)
		if err != nil {
			return nil, fmt.Errorf("%w (event %d)", err, i)
		}
		e := Event{
			Kind:        Kind(ej.Kind),
			Node:        ej.Node,
			At:          at,
			Duration:    dur,
			LatencyMult: ej.LatencyMult,
			JitterFrac:  ej.JitterFrac,
			DropProb:    ej.DropProb,
			Cycles:      ej.Cycles,
		}
		switch len(ej.Link) {
		case 0:
		case 2:
			e.A, e.B = ej.Link[0], ej.Link[1]
		default:
			return nil, fmt.Errorf("faults: event %d: link must have exactly 2 endpoints", i)
		}
		s.Events = append(s.Events, e)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads and parses a schedule file.
func Load(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return Parse(data)
}

// MarshalJSON renders the schedule in the same form Parse accepts.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	sj := scheduleJSON{Name: s.Name}
	if s.Window != [2]time.Duration{} {
		sj.WindowMs = []int64{s.Window[0].Milliseconds(), s.Window[1].Milliseconds()}
	}
	for _, e := range s.Events {
		ej := eventJSON{
			Kind:        string(e.Kind),
			Node:        e.Node,
			AtMs:        e.At.Milliseconds(),
			DurationMs:  e.Duration.Milliseconds(),
			LatencyMult: e.LatencyMult,
			JitterFrac:  e.JitterFrac,
			DropProb:    e.DropProb,
			Cycles:      e.Cycles,
		}
		if e.A != "" || e.B != "" {
			ej.Link = []string{e.A, e.B}
		}
		sj.Events = append(sj.Events, ej)
	}
	return json.MarshalIndent(sj, "", "  ")
}

// Validate checks internal consistency of every event (kinds, required
// fields, ranges). Topology checks happen in Arm, against the real network.
func (s *Schedule) Validate() error {
	for i, e := range s.Events {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("faults: event %d (%s): %s", i, e.Kind, fmt.Sprintf(format, args...))
		}
		if e.At < 0 || e.Duration <= 0 {
			return fail("needs at >= 0 and duration > 0")
		}
		if e.Duration > math.MaxInt64-e.At {
			return fail("ends past the largest representable time")
		}
		isLink := false
		switch e.Kind {
		case LinkDown, LinkFlap, Latency, Drop:
			isLink = true
		case NodeDown:
			if e.Node == "" {
				return fail("needs a node")
			}
		default:
			return fail("unknown kind")
		}
		if isLink && (e.A == "" || e.B == "") {
			return fail("needs a link with 2 endpoints")
		}
		switch e.Kind {
		case LinkFlap:
			if e.Cycles < 1 {
				return fail("needs cycles >= 1")
			}
			if e.Duration/time.Duration(e.Cycles) < time.Millisecond {
				return fail("needs a flap period of at least 1ms (cycles <= duration_ms)")
			}
		case Latency:
			if e.LatencyMult <= 0 && e.JitterFrac <= 0 {
				return fail("needs latency_mult > 0 or jitter_frac > 0")
			}
			if e.LatencyMult < 0 || e.JitterFrac < 0 {
				return fail("multiplier and jitter must be non-negative")
			}
		case Drop:
			if e.DropProb <= 0 || e.DropProb > 1 {
				return fail("needs drop_prob in (0, 1]")
			}
		}
	}
	if s.Window[1] < s.Window[0] {
		return fmt.Errorf("faults: window end before start")
	}
	return nil
}

// linkKey canonicalizes a link's endpoints so either naming order shares
// composition state.
func linkKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

// linkState tracks composition of concurrently active events on one link:
// outage depth (overlapping down events nest) and the set of active quality
// events (effective quality is the field-wise max of the active set).
type linkState struct {
	downDepth int
	active    map[int]Event // armed-event index -> event
}

// armed is the per-network runtime state shared by all scheduled callbacks.
type armed struct {
	net   *simnet.Network
	links map[string]*linkState
}

func (ar *armed) link(a, b string) *linkState {
	k := linkKey(a, b)
	ls, ok := ar.links[k]
	if !ok {
		ls = &linkState{active: make(map[int]Event)}
		ar.links[k] = ls
	}
	return ls
}

// applyQuality recomputes and installs the effective quality of a link from
// its active event set.
func (ar *armed) applyQuality(a, b string) {
	ls := ar.link(a, b)
	var q simnet.LinkQuality
	for _, e := range ls.active {
		if e.LatencyMult > q.LatencyMult {
			q.LatencyMult = e.LatencyMult
		}
		if e.JitterFrac > q.JitterFrac {
			q.JitterFrac = e.JitterFrac
		}
		if e.DropProb > q.DropProb {
			q.DropProb = e.DropProb
		}
	}
	// Setting quality on a known link cannot fail (Arm validated it).
	_ = ar.net.SetLinkQuality(a, b, q)
}

// Arm validates the schedule against net's topology, enables the network's
// fault RNG (derived from seed — pass the env seed) and registers every
// event as virtual-clock callbacks. Call before env.Run.
//
// Overlap semantics on a single link: down events nest (the link is up only
// when every active down event has ended), and quality events compose by
// field-wise max. Flap cycles toggle raw link state and should not overlap
// other down events on the same link.
func Arm(net *simnet.Network, s *Schedule, seed int64) error {
	if s == nil {
		return nil
	}
	if err := s.Validate(); err != nil {
		return err
	}
	for i, e := range s.Events {
		if e.Node != "" && net.Node(e.Node) == nil {
			return fmt.Errorf("faults: event %d: no node %q", i, e.Node)
		}
		if e.A != "" && !net.HasLink(e.A, e.B) {
			return fmt.Errorf("faults: event %d: no link %s-%s", i, e.A, e.B)
		}
	}
	net.EnableFaults(seed)
	env := net.Env()
	mInjected := env.Metrics().CounterVec("faults_injected_total", "kind")
	ar := &armed{net: net, links: make(map[string]*linkState)}
	for i, e := range s.Events {
		i, e := i, e
		inject := mInjected.With(string(e.Kind))
		switch e.Kind {
		case LinkDown:
			env.At(e.At, func() {
				inject.Inc()
				ls := ar.link(e.A, e.B)
				ls.downDepth++
				if ls.downDepth == 1 {
					_ = ar.net.SetLinkState(e.A, e.B, false)
				}
			})
			env.At(e.At+e.Duration, func() {
				ls := ar.link(e.A, e.B)
				ls.downDepth--
				if ls.downDepth == 0 {
					_ = ar.net.SetLinkState(e.A, e.B, true)
				}
			})
		case LinkFlap:
			period := e.Duration / time.Duration(e.Cycles)
			for c := 0; c < e.Cycles; c++ {
				start := e.At + time.Duration(c)*period
				env.At(start, func() {
					inject.Inc()
					_ = ar.net.SetLinkState(e.A, e.B, false)
				})
				env.At(start+period/2, func() {
					_ = ar.net.SetLinkState(e.A, e.B, true)
				})
			}
		case Latency, Drop:
			env.At(e.At, func() {
				inject.Inc()
				ar.link(e.A, e.B).active[i] = e
				ar.applyQuality(e.A, e.B)
			})
			env.At(e.At+e.Duration, func() {
				delete(ar.link(e.A, e.B).active, i)
				ar.applyQuality(e.A, e.B)
			})
		case NodeDown:
			env.At(e.At, func() {
				inject.Inc()
				_ = ar.net.SetNodeState(e.Node, false)
			})
			env.At(e.At+e.Duration, func() {
				_ = ar.net.SetNodeState(e.Node, true)
			})
		}
	}
	return nil
}

// Onsets returns the distinct fault start times, ascending — the reference
// marks adaptation-lag reporting measures controller reactions against.
func (s *Schedule) Onsets() []time.Duration {
	seen := make(map[time.Duration]bool, len(s.Events))
	out := make([]time.Duration, 0, len(s.Events))
	for _, e := range s.Events {
		if !seen[e.At] {
			seen[e.At] = true
			out = append(out, e.At)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Canonical builds the canonical WAN-outage schedule used by the
// availability experiment, scaled to a run of the given warm-up and
// measurement length. Times are absolute virtual time (warm-up included):
//
//   - the edge1-router WAN link goes down for measure/4, starting at
//     warmup + measure/4 — the scored outage window;
//   - after it recovers, the edge2-router link degrades (3× latency, 25%
//     jitter, 8% loss) for measure/8, exercising timeouts and retries;
//   - the edge1-router link then flaps (4 cycles over measure/16);
//   - finally the edge2 node crashes and restarts (measure/16).
func Canonical(warmup, measure time.Duration) *Schedule {
	t := func(frac float64) time.Duration {
		return warmup + time.Duration(float64(measure)*frac)
	}
	s := &Schedule{
		Name:   "canonical-outage",
		Window: [2]time.Duration{t(0.25), t(0.50)},
		Events: []Event{
			{Kind: LinkDown, A: simnet.NodeEdge1, B: simnet.NodeRouter, At: t(0.25), Duration: measure / 4},
			{Kind: Latency, A: simnet.NodeEdge2, B: simnet.NodeRouter, At: t(0.5625), Duration: measure / 8,
				LatencyMult: 3, JitterFrac: 0.25},
			{Kind: Drop, A: simnet.NodeEdge2, B: simnet.NodeRouter, At: t(0.5625), Duration: measure / 8,
				DropProb: 0.08},
			{Kind: LinkFlap, A: simnet.NodeEdge1, B: simnet.NodeRouter, At: t(0.75), Duration: measure / 16, Cycles: 4},
			{Kind: NodeDown, Node: simnet.NodeEdge2, At: t(0.875), Duration: measure / 16},
		},
	}
	return s
}
