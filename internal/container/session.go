package container

import (
	"fmt"

	"wadeploy/internal/jms"
	"wadeploy/internal/metrics"
	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

// Invocation is the context passed to a session-bean business method, an
// envelope its Server recycles once the method returns: a method copies what
// it keeps (Args is the call envelope's, State the instance's own) and keeps
// no reply it answered in Out, the caller's.
type Invocation struct {
	Server  *Server
	Method  string
	Args    []sqldb.Value // the caller's arguments, typed; a stateful call's without its session key
	Caller  string
	Session string // stateful beans: the client session key
	State   State  // stateful beans: the instance's conversational state
	Out     any    // the caller's reply record (rmi.Call.Out), which Reply fills
}

// Method is a session-bean business method. Methods run on the invoking
// process; container overhead (MethodCPU) is charged before entry. A method
// that answers a value answers it through Reply.
type Method func(p *sim.Proc, inv *Invocation) (any, error)

// Reply answers inv with v, or with err when it is not nil: in the caller's
// record when that is a *T, in a new *T otherwise (no record, or a caller that
// keeps the reply). Either way the answer is a pointer, so it boxes nothing.
func Reply[T any](inv *Invocation, v T, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	out, ok := inv.Out.(*T)
	if !ok {
		out = new(T)
	}
	*out = v
	return out, nil
}

// Invoke calls method on stub with a reply record from free and returns the
// *T reply by value once it has read it, recycling the record. The reply is
// the record itself or an object the callee shares, such as a cached result;
// the copy leaves both alone.
func Invoke[T any](p *sim.Proc, stub *rmi.Stub, free *sim.Free[T], method string, args ...sqldb.Value) (T, error) {
	var zero T
	out := free.Take(zero)
	defer free.Put(out)
	v, err := stub.InvokeInto(p, out, method, args...)
	if err != nil {
		return zero, err
	}
	r, ok := v.(*T)
	if !ok {
		return zero, fmt.Errorf("container: %s returned %T", method, v)
	}
	return *r, nil
}

// StatelessBean is a deployed stateless session bean: a façade component
// holding no conversational state (it may hold soft state such as query
// caches, which the EJB specification permits).
type StatelessBean struct {
	srv     *Server
	name    string
	methods map[string]Method

	mCalls *metrics.Counter
}

// DeployStateless deploys a stateless session bean with the given business
// methods and binds it in the server's JNDI registry.
func DeployStateless(srv *Server, name string, methods map[string]Method) (*StatelessBean, error) {
	b := &StatelessBean{
		srv: srv, name: name, methods: methods,
		mCalls: srv.Env().Metrics().Counter("container_stateless_calls_total"),
	}
	if err := srv.bind(name, StatelessSession, b.handle); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *StatelessBean) handle(p *sim.Proc, call *rmi.Call) (any, error) {
	m, ok := b.methods[call.Method]
	if !ok {
		return nil, fmt.Errorf("container: %s.%s: %w", b.name, call.Method, ErrNoSuchMethod)
	}
	b.mCalls.Inc()
	b.srv.Compute(p, MethodCPU)
	inv := b.srv.invs.Take(Invocation{Server: b.srv, Method: call.Method, Args: call.Args, Caller: call.Caller, Out: call.Out})
	defer b.srv.invs.Put(inv)
	return m(p, inv)
}

// StatefulBean is a deployed stateful session bean: one conversational-state
// instance per client session, acting as a server-side extension of the
// client's runtime (ShoppingCart in Pet Store). Invocations carry the
// session key as their first argument, a string.
type StatefulBean struct {
	srv       *Server
	name      string
	methods   map[string]Method
	instances map[string]State

	mCalls       *metrics.Counter
	mActivations *metrics.Counter
}

// DeployStateful deploys a stateful session bean.
func DeployStateful(srv *Server, name string, methods map[string]Method) (*StatefulBean, error) {
	reg := srv.Env().Metrics()
	b := &StatefulBean{
		srv:          srv,
		name:         name,
		methods:      methods,
		instances:    make(map[string]State),
		mCalls:       reg.Counter("container_stateful_calls_total"),
		mActivations: reg.Counter("container_stateful_activations_total"),
	}
	if err := srv.bind(name, StatefulSession, b.handle); err != nil {
		return nil, err
	}
	return b, nil
}

// Instances returns the number of live conversational-state instances.
func (b *StatefulBean) Instances() int { return len(b.instances) }

// Remove discards a session's instance (ejbRemove on sign-out).
func (b *StatefulBean) Remove(session string) { delete(b.instances, session) }

func (b *StatefulBean) handle(p *sim.Proc, call *rmi.Call) (any, error) {
	if len(call.Args) == 0 {
		return nil, fmt.Errorf("container: %s.%s: stateful invocation requires a session key", b.name, call.Method)
	}
	if call.Args[0].K != sqldb.KindString {
		return nil, fmt.Errorf("container: %s.%s: session key must be a string", b.name, call.Method)
	}
	sessionKey := call.Args[0].S
	m, ok := b.methods[call.Method]
	if !ok {
		return nil, fmt.Errorf("container: %s.%s: %w", b.name, call.Method, ErrNoSuchMethod)
	}
	st, ok := b.instances[sessionKey]
	if !ok {
		st = make(State)
		b.instances[sessionKey] = st
		b.mActivations.Inc()
	}
	b.mCalls.Inc()
	b.srv.Compute(p, MethodCPU)
	inv := b.srv.invs.Take(Invocation{Server: b.srv, Method: call.Method, Args: call.Args[1:], Caller: call.Caller,
		Session: sessionKey, State: st, Out: call.Out})
	defer b.srv.invs.Put(inv)
	return m(p, inv)
}

// MDBean is a deployed message-driven bean: an asynchronous façade consuming
// a JMS topic (the UpdateSubscriber of Section 4.5).
type MDBean struct {
	mRecv *metrics.Counter
}

// DeployMDB deploys a message-driven bean subscribed to topic on the
// deployment's JMS provider. onMessage runs on the delivery process with
// container overhead charged.
func DeployMDB(srv *Server, name, topic string, onMessage func(p *sim.Proc, srvr *Server, msg *jms.Message)) (*MDBean, error) {
	if srv.jms == nil {
		return nil, fmt.Errorf("container: deploy MDB %s: server %s has no JMS provider", name, srv.name)
	}
	b := &MDBean{mRecv: srv.Env().Metrics().Counter("container_mdb_deliveries_total")}
	err := srv.jms.Subscribe(topic, srv.name, name, func(p *sim.Proc, msg *jms.Message) {
		b.mRecv.Inc()
		srv.Compute(p, MethodCPU)
		onMessage(p, srv, msg)
	})
	if err != nil {
		return nil, fmt.Errorf("container: deploy MDB %s: %w", name, err)
	}
	srv.beans[name] = &binding{name: name, kind: MessageDriven}
	return b, nil
}
