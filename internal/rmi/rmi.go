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
// mid-call sees only its own arguments.
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

	// Payload is a structured argument beside Args — an update batch, a
	// replicated session's state — as one pointer-shaped value (a pointer
	// or a map), so holding it boxes nothing. Nil for most calls.
	Payload any

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

// Options is the invocation cost model.
type Options struct {
	// Rounds is the number of network round trips per remote invocation.
	// Plain request/response is 1.0; values above 1 model RMI's ping and
	// distributed-GC traffic.
	Rounds float64

	// RequestBytes and ReplyBytes are default payload sizes.
	RequestBytes int
	ReplyBytes   int

	// LocalDispatch is the CPU cost of an in-VM (co-located) call.
	LocalDispatch time.Duration

	// MarshalCPU is the caller/callee CPU cost of serializing a remote
	// call's request plus reply.
	MarshalCPU time.Duration

	// Retry, when non-nil, enables per-call timeouts and capped
	// exponential backoff for remote calls that fail at the transport
	// level. See RetryPolicy.
	Retry *RetryPolicy

	// Breaker, when non-nil, enables a per-destination circuit breaker
	// for remote calls. See BreakerPolicy.
	Breaker *BreakerPolicy
}

// DefaultOptions is a reasonable year-2002 JVM RMI cost model.
var DefaultOptions = Options{
	Rounds:        1.5,
	RequestBytes:  512,
	ReplyBytes:    2048,
	LocalDispatch: 50 * time.Microsecond,
	MarshalCPU:    500 * time.Microsecond,
}

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

	// resil is nil unless a retry or breaker policy is configured; its
	// metric families exist only in resilience-enabled runs.
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
		resil:       newResilience(mreg, opts.Retry, opts.Breaker),
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

// Net returns the underlying network.
func (rt *Runtime) Net() *simnet.Network { return rt.net }

// Options returns the active cost model.
func (rt *Runtime) Options() Options { return rt.opts }

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

// Unbind removes a binding.
func (rt *Runtime) Unbind(node, name string) {
	if m := rt.reg[node]; m != nil {
		delete(m, name)
	}
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

// Target returns the node the stub points at.
func (s *Stub) Target() string { return s.obj.Node }

// Name returns the bound name of the object.
func (s *Stub) Name() string { return s.obj.Name }

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
		p.Sleep(rt.opts.LocalDispatch)
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

// Invoke calls method with args using the default payload sizes.
func (s *Stub) Invoke(p *sim.Proc, method string, args ...sqldb.Value) (any, error) {
	return s.InvokeSized(p, method, s.rt.opts.RequestBytes, s.rt.opts.ReplyBytes, nil, args...)
}

// InvokeSized calls method with explicit request/reply payload sizes and a
// structured payload (see Call.Payload; nil for none). For a co-located
// object this is a local dispatch; for a remote object it costs marshalling
// CPU plus Rounds round trips of network time.
func (s *Stub) InvokeSized(p *sim.Proc, method string, reqBytes, replyBytes int, payload any, args ...sqldb.Value) (any, error) {
	rt := s.rt
	call := rt.calls.Take(Call{Method: method, Payload: payload, Caller: s.caller})
	defer rt.calls.Put(call)
	call.Args = append(call.room[:0], args...)
	if !s.Remote() {
		rt.mLocal.Inc()
		defer trace.Opf(p, "call", s.caller, "", trace.CauseService, s.obj.Name, ".", method)()
		p.Sleep(rt.opts.LocalDispatch)
		return s.obj.h(p, call)
	}
	rt.mRemote.Inc()
	out, back := s.routes()
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
	if rt.resil != nil {
		return s.invokeResilient(p, call, reqBytes, replyBytes)
	}
	start := p.Now()
	p.Sleep(rt.opts.MarshalCPU)
	if err := out.Transfer(p, reqBytes); err != nil {
		return nil, fmt.Errorf("rmi: invoke %s.%s: %w", s.obj.Name, method, err)
	}
	result, err := s.obj.h(p, call)
	if terr := back.Transfer(p, replyBytes); terr != nil {
		return nil, fmt.Errorf("rmi: invoke %s.%s (reply): %w", s.obj.Name, method, terr)
	}
	// Extra round trips for RMI ping/DGC traffic.
	if extra := rt.opts.Rounds - 1; extra > 0 {
		rtt, rttErr := out.RTT()
		if rttErr == nil {
			p.Sleep(time.Duration(extra * float64(rtt)))
		}
	}
	rt.mRemoteNs.Observe(p.Now() - start)
	return result, err
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

// Size returns the number of cached stubs.
func (c *StubCache) Size() int { return len(c.stubs) }
