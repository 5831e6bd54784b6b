package container

import (
	"fmt"

	"wadeploy/internal/jms"
	"wadeploy/internal/metrics"
	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/trace"
)

// Invocation is the context passed to a session-bean business method, an
// envelope its Server recycles once the method returns: a method copies what
// it keeps (Args is the call envelope's, State the instance's own).
type Invocation struct {
	Server  *Server
	Method  string
	Args    []sqldb.Value // the caller's arguments, typed; a stateful call's without its session key
	Caller  string
	Session string // stateful beans: the client session key
	State   State  // stateful beans: the instance's conversational state
}

// Method is a session-bean business method. Methods run on the invoking
// process; container overhead (MethodCPU) is charged before entry.
type Method func(p *sim.Proc, inv *Invocation) (any, error)

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

// Name returns the bean's deployment name.
func (b *StatelessBean) Name() string { return b.name }

func (b *StatelessBean) handle(p *sim.Proc, call *rmi.Call) (any, error) {
	m, ok := b.methods[call.Method]
	if !ok {
		return nil, fmt.Errorf("container: %s.%s: %w", b.name, call.Method, ErrNoSuchMethod)
	}
	b.mCalls.Inc()
	b.srv.Compute(p, b.srv.costs.MethodCPU)
	inv := b.srv.invs.Take(Invocation{Server: b.srv, Method: call.Method, Args: call.Args, Caller: call.Caller})
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

	// Session replication (the memory-to-memory stateful-session-EJB
	// replication J2EE clusters use for failover; the paper notes it is a
	// LAN-scale mechanism — enabling it across the WAN makes every
	// mutating call pay a wide-area push, which is measurable here).
	replicaServer string
	replicated    int64

	mCalls       *metrics.Counter
	mActivations *metrics.Counter
	mRepl        *metrics.Counter
}

// methodApplySession is the internal method replication peers invoke to
// install a session instance's state.
const methodApplySession = "__applySession"

// ReplicateTo enables synchronous session replication: after every business
// method, the instance's state is pushed to the same-named bean on
// buddyServer, so the session survives losing this server (clients re-route
// and resume). Pass "" to disable.
func (b *StatefulBean) ReplicateTo(buddyServer string) {
	b.replicaServer = buddyServer
}

// Replicated returns the number of session-state pushes performed.
func (b *StatefulBean) Replicated() int64 { return b.replicated }

// Resume returns whether a (possibly replicated) instance exists for the
// session key — what a failover router checks before re-homing a client.
func (b *StatefulBean) Resume(session string) bool {
	_, ok := b.instances[session]
	return ok
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
		mRepl:        reg.Counter("container_session_replications_total"),
	}
	if err := srv.bind(name, StatefulSession, b.handle); err != nil {
		return nil, err
	}
	return b, nil
}

// Name returns the bean's deployment name.
func (b *StatefulBean) Name() string { return b.name }

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
	if call.Method == methodApplySession {
		st, ok := call.Payload.(State)
		if !ok {
			return nil, fmt.Errorf("container: %s: session replication payload must be State", b.name)
		}
		b.srv.Compute(p, b.srv.costs.CacheHitCPU)
		b.instances[sessionKey] = st.Clone()
		return nil, nil
	}
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
	b.srv.Compute(p, b.srv.costs.MethodCPU)
	inv := b.srv.invs.Take(Invocation{Server: b.srv, Method: call.Method, Args: call.Args[1:], Caller: call.Caller,
		Session: sessionKey, State: st})
	defer b.srv.invs.Put(inv)
	result, err := m(p, inv)
	if err == nil && b.replicaServer != "" && b.replicaServer != b.srv.name {
		if rerr := b.replicate(p, sessionKey, st); rerr != nil {
			return nil, fmt.Errorf("container: %s session replication: %w", b.name, rerr)
		}
	}
	return result, err
}

// replicate pushes the session instance's state to the buddy server.
func (b *StatefulBean) replicate(p *sim.Proc, sessionKey string, st State) error {
	defer trace.Opf(p, "session-repl", b.replicaServer, "", trace.CauseService, b.name, " -> ", b.replicaServer)()
	stub, err := b.srv.StubFor(p, b.replicaServer, b.name)
	if err != nil {
		return err
	}
	if _, err := stub.InvokeSized(p, methodApplySession, 1024, 64, st.Clone(), sqldb.Str(sessionKey)); err != nil {
		return err
	}
	b.replicated++
	b.mRepl.Inc()
	return nil
}

// MDBean is a deployed message-driven bean: an asynchronous façade consuming
// a JMS topic (the UpdateSubscriber of Section 4.5).
type MDBean struct {
	srv  *Server
	name string

	mRecv *metrics.Counter
}

// DeployMDB deploys a message-driven bean subscribed to topic on the
// deployment's JMS provider. onMessage runs on the delivery process with
// container overhead charged.
func DeployMDB(srv *Server, name, topic string, onMessage func(p *sim.Proc, srvr *Server, msg *jms.Message)) (*MDBean, error) {
	if srv.jms == nil {
		return nil, fmt.Errorf("container: deploy MDB %s: server %s has no JMS provider", name, srv.name)
	}
	b := &MDBean{
		srv: srv, name: name,
		mRecv: srv.Env().Metrics().Counter("container_mdb_deliveries_total"),
	}
	err := srv.jms.Subscribe(topic, srv.name, name, func(p *sim.Proc, msg *jms.Message) {
		b.mRecv.Inc()
		srv.Compute(p, srv.costs.MethodCPU)
		onMessage(p, srv, msg)
	})
	if err != nil {
		return nil, fmt.Errorf("container: deploy MDB %s: %w", name, err)
	}
	srv.beans[name] = &binding{name: name, kind: MessageDriven}
	return b, nil
}

// Name returns the bean's deployment name.
func (b *MDBean) Name() string { return b.name }
