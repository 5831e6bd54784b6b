// Package rmi models a Java-RMI-style remote invocation layer over the
// simulated network: per-node naming registries (JNDI), home/remote stubs,
// stub caches (the EJBHomeFactory pattern), and a calibrated cost model for
// remote calls.
//
// The paper observes that an RMI invocation can cost more than one network
// round trip (ping packets and distributed garbage collection, [5] in the
// paper); Options.Rounds captures that as a multiplier on the round-trip
// time. JNDI lookups against a remote registry cost a full remote call,
// which is exactly the overhead the EJBHomeFactory stub-caching pattern
// removes.
//
// A handler's *Call is an envelope the Runtime recycles once the handler
// returns, so a handler copies what it keeps. Arguments are typed SQL values
// that Invoke copies into the envelope's inline room: the caller's variadic
// array stays on its stack, a call boxes no argument, and a process parked
// mid-call sees only its own arguments. A reply can travel the same way: the
// caller passes a record it owns (Call.Out), the handler builds the reply
// there and returns the record's pointer, which boxes nothing.
package rmi

import (
	"errors"
	"fmt"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/trace"
)

// wideAreaOneWay is the one-way latency above which a remote call is
// classified wide-area. The threshold lives in simnet so the tracing layer
// classifies network spans identically.
const wideAreaOneWay = simnet.WideAreaOneWay

// ErrNotBound is returned when a name is not present in a registry.
var ErrNotBound = errors.New("rmi: name not bound")

// inlineArgs is the argument room an envelope carries: the widest call
// either application makes. A wider call's arguments spill to the heap.
const inlineArgs = 5

// Call carries one invocation's method name, arguments and caller node.
type Call struct {
	Method string

	// Args is the envelope's own copy of the caller's arguments, held in
	// its inline room, valid until the handler returns.
	Args []sqldb.Value

	// Payload is a structured argument beside Args — the pusher's update
	// batch — as one pointer-shaped value, so holding it boxes nothing. Nil
	// for most calls.
	Payload any

	// Out is the caller's reply record, a pointer, or nil for none. A handler
	// may build its reply there and return Out, but keeps it nowhere: the
	// caller recycles it once it has read the reply.
	Out any

	Caller string // node ID of the caller
	room   [inlineArgs]sqldb.Value
}

// Handler executes an invocation on the object's node. Handlers run on the
// calling process and are responsible for charging their own CPU time.
type Handler func(p *sim.Proc, call *Call) (any, error)

// Object is a remotely invocable server-side object bound to a node.
type Object struct {
	Name string
	Node string
	h    Handler
}

// The calibrated cost of a call, the same under both application stacks.
const (
	// RequestBytes and ReplyBytes are the default payload sizes.
	RequestBytes = 512
	ReplyBytes   = 2048

	// LocalDispatch is the CPU cost of an in-VM (co-located) call.
	LocalDispatch = 50 * time.Microsecond

	// MarshalCPU is the caller/callee CPU cost of serializing a remote
	// call's request plus reply.
	MarshalCPU = 500 * time.Microsecond
)

// Options are what the two application stacks set differently.
type Options struct {
	// Rounds is the number of network round trips per remote invocation.
	// Plain request/response is 1.0; values above 1 model RMI's ping and
	// distributed-GC traffic.
	Rounds float64

	// Resilient arms per-call timeouts, capped exponential backoff and a
	// per-destination circuit breaker for remote calls, at the constant
	// policy of resilience.go. Off, a remote call makes one attempt.
	Resilient bool
}

// DefaultOptions is a year-2002 JVM RMI (JBoss 2.4.4, Pet Store's stack).
var DefaultOptions = Options{Rounds: 1.5}

// Runtime owns the registries of every node and performs invocations.
type Runtime struct {
	net  *simnet.Network
	opts Options
	reg  map[string]map[string]*Object // node -> name -> object

	mLocal      *metrics.Counter
	mRemote     *metrics.Counter
	mWide       *metrics.Counter
	mRemoteNs   *metrics.Histogram
	mLookups    *metrics.Counter
	mRemoteLkup *metrics.Counter
	mStubHits   *metrics.Counter
	mStubMiss   *metrics.Counter

	// resil is nil unless Options.Resilient; its metric families exist
	// only in resilience-enabled runs.
	resil *resilience
	calls sim.Free[Call] // envelopes of the invocations not in flight
}

// NewRuntime creates an RMI runtime over net with the given cost options.
func NewRuntime(net *simnet.Network, opts Options) *Runtime {
	if opts.Rounds < 1 {
		opts.Rounds = 1
	}
	mreg := net.Env().Metrics()
	mreg.Gauge("rmi_configured_rounds_milli").Set(int64(opts.Rounds * 1000))
	return &Runtime{
		resil:       newResilience(mreg, opts.Resilient),
		net:         net,
		opts:        opts,
		reg:         make(map[string]map[string]*Object),
		mLocal:      mreg.Counter("rmi_local_calls_total"),
		mRemote:     mreg.Counter("rmi_remote_calls_total"),
		mWide:       mreg.Counter("rmi_wide_area_calls_total"),
		mRemoteNs:   mreg.Histogram("rmi_remote_call_ns"),
		mLookups:    mreg.Counter("rmi_lookups_total"),
		mRemoteLkup: mreg.Counter("rmi_remote_lookups_total"),
		mStubHits:   mreg.Counter("rmi_stubcache_hits_total"),
		mStubMiss:   mreg.Counter("rmi_stubcache_misses_total"),
	}
}

// Bind registers handler h under name in node's registry.
func (rt *Runtime) Bind(node, name string, h Handler) (*Object, error) {
	if rt.net.Node(node) == nil {
		return nil, fmt.Errorf("rmi: bind %s: no such node %s", name, node)
	}
	m := rt.reg[node]
	if m == nil {
		m = make(map[string]*Object)
		rt.reg[node] = m
	}
	if _, dup := m[name]; dup {
		return nil, fmt.Errorf("rmi: name %s already bound on %s", name, node)
	}
	obj := &Object{Name: name, Node: node, h: h}
	m[name] = obj
	return obj, nil
}

// Stub is a client-side reference to a remote object, held by a specific
// caller node.
type Stub struct {
	rt     *Runtime
	obj    *Object
	caller string

	// out and back are the request and reply routes, held from the first
	// remote call on: a warm stub moves its messages without a lookup.
	out, back *simnet.Route
}

// routes returns the stub's request and reply routes, resolving the handles
// on first use.
func (s *Stub) routes() (out, back *simnet.Route) {
	if s.out == nil {
		s.out, s.back = s.rt.net.Route(s.caller, s.obj.Node), s.rt.net.Route(s.obj.Node, s.caller)
	}
	return s.out, s.back
}

// Remote reports whether invoking this stub crosses the network.
func (s *Stub) Remote() bool { return s.obj.Node != s.caller }

// Lookup resolves name in registryNode's JNDI tree on behalf of callerNode.
// A lookup against a remote registry costs one remote call; a local lookup
// costs only local dispatch CPU. The returned stub is owned by callerNode.
func (rt *Runtime) Lookup(p *sim.Proc, callerNode, registryNode, name string) (*Stub, error) {
	rt.mLookups.Inc()
	lookupCause := trace.CauseService
	var lookupPeer string
	if callerNode != registryNode {
		lookupPeer = callerNode
		if trace.Active(p) && rt.net.WideArea(callerNode, registryNode) {
			lookupCause = trace.CauseWAN
		}
	}
	defer trace.Opf(p, "jndi", registryNode, lookupPeer, lookupCause, name, " @ ", registryNode)()
	if callerNode != registryNode {
		rt.mRemoteLkup.Inc()
		if err := rt.networkRoundTrip(p, callerNode, registryNode, 128, 256); err != nil {
			return nil, fmt.Errorf("rmi: lookup %s on %s: %w", name, registryNode, err)
		}
	} else {
		p.Sleep(LocalDispatch)
	}
	obj := rt.resolve(registryNode, name)
	if obj == nil {
		return nil, fmt.Errorf("rmi: lookup %s on %s: %w", name, registryNode, ErrNotBound)
	}
	return &Stub{rt: rt, obj: obj, caller: callerNode}, nil
}

// resolve returns the object bound under name on node, or nil.
func (rt *Runtime) resolve(node, name string) *Object {
	if m := rt.reg[node]; m != nil {
		return m[name]
	}
	return nil
}

// LocalStub returns a zero-cost stub for an object already known to be
// bound on registryNode; it models a cached home/remote stub (the
// EJBHomeFactory pattern) where no JNDI traffic occurs.
func (rt *Runtime) LocalStub(callerNode, registryNode, name string) (*Stub, error) {
	obj := rt.resolve(registryNode, name)
	if obj == nil {
		return nil, fmt.Errorf("rmi: stub %s on %s: %w", name, registryNode, ErrNotBound)
	}
	return &Stub{rt: rt, obj: obj, caller: callerNode}, nil
}

// Invoke calls method with args using the default payload sizes and no
// reply record: the reply is the handler's to allocate, the caller's to keep.
func (s *Stub) Invoke(p *sim.Proc, method string, args ...sqldb.Value) (any, error) {
	return s.InvokeInto(p, nil, method, args...)
}

// InvokeInto is Invoke with the caller's reply record (see Call.Out).
func (s *Stub) InvokeInto(p *sim.Proc, reply any, method string, args ...sqldb.Value) (any, error) {
	return s.InvokeSized(p, method, RequestBytes, ReplyBytes, nil, reply, args...)
}

// InvokeSized calls method with explicit request/reply payload sizes, a
// structured payload (see Call.Payload) and a reply record (see Call.Out),
// each nil for none. For a co-located object this is a local dispatch; for a
// remote object it costs marshalling CPU plus Rounds round trips of network
// time.
func (s *Stub) InvokeSized(p *sim.Proc, method string, reqBytes, replyBytes int, payload, reply any, args ...sqldb.Value) (any, error) {
	rt := s.rt
	call := rt.calls.Take(Call{Method: method, Payload: payload, Out: reply, Caller: s.caller})
	defer rt.calls.Put(call)
	call.Args = append(call.room[:0], args...)
	if !s.Remote() {
		rt.mLocal.Inc()
		defer trace.Opf(p, "call", s.caller, "", trace.CauseService, s.obj.Name, ".", method)()
		p.Sleep(LocalDispatch)
		return s.obj.h(p, call)
	}
	rt.mRemote.Inc()
	out, _ := s.routes()
	wide := true // unreachable counts as wide: whatever stalls there, a LAN did not
	if oneWay, owErr := out.Latency(); owErr == nil {
		wide = oneWay >= wideAreaOneWay
		if wide {
			rt.mWide.Inc()
		}
	}
	callCause := trace.CauseService
	if wide {
		callCause = trace.CauseWAN
	}
	// The rmi span's self-time is marshalling plus network round trips; the
	// handler runs on the calling process, so its work (SQL, nested calls)
	// nests as child spans and claims its own causes.
	defer trace.Opf(p, "rmi", s.obj.Node, s.caller, callCause, s.obj.Name, ".", method)()
	return s.invokeRemote(p, call, reqBytes, replyBytes)
}

// networkRoundTrip models one request/response exchange without dispatch.
func (rt *Runtime) networkRoundTrip(p *sim.Proc, from, to string, reqBytes, replyBytes int) error {
	if err := rt.net.Transfer(p, from, to, reqBytes); err != nil {
		return err
	}
	return rt.net.Transfer(p, to, from, replyBytes)
}

// StubCache is a per-node cache of stubs keyed by (registry node, name): the
// EJBHomeFactory design pattern. With the cache warm, neither JNDI lookups
// nor stub-creation round trips occur.
type StubCache struct {
	rt     *Runtime
	caller string
	prefix string
	stubs  map[[2]string]*Stub // by {registry node, name}: a hit joins no string
}

// NewStubCache creates an empty stub cache for callerNode. Every name is
// looked up under the JNDI context prefix (the container's is "ejb/").
func NewStubCache(rt *Runtime, callerNode, prefix string) *StubCache {
	return &StubCache{rt: rt, caller: callerNode, prefix: prefix, stubs: make(map[[2]string]*Stub)}
}

// Get returns a cached stub, performing (and paying for) a JNDI lookup only
// on first use.
func (c *StubCache) Get(p *sim.Proc, registryNode, name string) (*Stub, error) {
	k := [2]string{registryNode, name}
	if s, ok := c.stubs[k]; ok {
		c.rt.mStubHits.Inc()
		return s, nil
	}
	c.rt.mStubMiss.Inc()
	s, err := c.rt.Lookup(p, c.caller, registryNode, c.prefix+name)
	if err != nil {
		return nil, err
	}
	c.stubs[k] = s
	return s, nil
}
