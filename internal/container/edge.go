package container

import (
	"fmt"

	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

// EdgeMethodSpec declares one method of an edge façade, served by one of
// four kinds: Delegate (one WAN call to main's method of the same name),
// FromCache (the edge's query cache), FromReplicas (a handler over the edge's
// replicas) or FromEdgeDB (a statement on the edge's database replica). Until
// its edge is wired, every kind delegates. A spec holds no per-edge state, so
// one table serves every edge of every deployment.
type EdgeMethodSpec struct {
	Name string
	// FromCache: the cached query, the key a call names in it, and the
	// replicated bean, if any, whose partition slice must own the first
	// argument for the edge to serve the call. A handler that reads a cached
	// query declares it the same way (Reads).
	Query string
	Key   func(args []sqldb.Value) string
	Owner string
	// FromReplicas: the handler, and the beans whose edge replicas
	// EdgeMethod.Replicas holds for it.
	Handler EdgeHandler
	Beans   []string
	// FromEdgeDB: the statement, and its arguments from the call's.
	SQL  string
	Args func(args []sqldb.Value) []sqldb.Value
}

// EdgeHandler serves a FromReplicas method from its bound handles,
// answering inv through Reply as main's method does.
type EdgeHandler func(p *sim.Proc, m *EdgeMethod, inv *Invocation) (any, error)

// Delegate declares a method that always calls main.
func Delegate(name string) EdgeMethodSpec { return EdgeMethodSpec{Name: name} }

// FromCache declares a method served from the cache of query at key.
func FromCache(name, query string, key func(args []sqldb.Value) string) EdgeMethodSpec {
	return EdgeMethodSpec{Name: name, Query: query, Key: key}
}

// FromReplicas declares a method h serves from the edge replicas of beans.
func FromReplicas(name string, h EdgeHandler, beans ...string) EdgeMethodSpec {
	return EdgeMethodSpec{Name: name, Handler: h, Beans: beans}
}

// FromEdgeDB declares a method that answers the rows sql returns, with args
// of the call's arguments, from the edge's database replica.
func FromEdgeDB(name, sql string, args func([]sqldb.Value) []sqldb.Value) EdgeMethodSpec {
	return EdgeMethodSpec{Name: name, SQL: sql, Args: args}
}

// ReadsEdgeDB reports whether any method of facades is FromEdgeDB: the
// edges then need database replicas.
func ReadsEdgeDB(facades []EdgeFacadeSpec) bool {
	for _, f := range facades {
		for _, m := range f.Methods {
			if m.SQL != "" {
				return true
			}
		}
	}
	return false
}

// Reads declares that m's handler reads the cache of query at key, which it
// looks up through m.Key.
func (m EdgeMethodSpec) Reads(query string, key func(args []sqldb.Value) string) EdgeMethodSpec {
	m.Query, m.Key = query, key
	return m
}

// OwnedBy scopes a FromCache method to the edge's partition slice of bean.
func (m EdgeMethodSpec) OwnedBy(bean string) EdgeMethodSpec {
	m.Owner = bean
	return m
}

// EdgeFacadeSpec declares a façade the edges serve under main's bean name.
type EdgeFacadeSpec struct {
	Bean    string
	Methods []EdgeMethodSpec
}

// validate checks f against the descriptor's replicas, cached queries and
// the façades before it, and adds it to those.
func (f *EdgeFacadeSpec) validate(replicas, queries, facades map[string]bool) error {
	switch {
	case f.Bean == "":
		return fmt.Errorf("%w: edge façade with empty bean", ErrBadDescriptor)
	case facades[f.Bean]:
		return fmt.Errorf("%w: duplicate edge façade %s", ErrBadDescriptor, f.Bean)
	}
	facades[f.Bean] = true
	for _, m := range f.Methods {
		if m.Query != "" && (m.Key == nil || !queries[m.Query]) {
			return fmt.Errorf("%w: %s.%s: no key in cached query %q", ErrBadDescriptor, f.Bean, m.Name, m.Query)
		}
		for _, b := range append([]string{m.Owner}, m.Beans...) {
			if b != "" && !replicas[b] {
				return fmt.Errorf("%w: %s.%s: bean %s has no replica", ErrBadDescriptor, f.Bean, m.Name, b)
			}
		}
	}
	return nil
}

// EdgeMethod is one declared method on one edge, serving from the handles
// Bind gives it once its edge is wired.
type EdgeMethod struct {
	*EdgeMethodSpec
	Bean   string // the façade
	main   string // the server main's façade is deployed on
	Server *Server

	Replicas []*ROEntity // the replicas of Beans, once bound
	Cache    *QueryCache // the edge's query cache, once bound, if it has one
	owner    *ROEntity
	wired    bool
}

// DeployEdgeFacade deploys f on srv as a stateless session bean whose
// methods delegate to the façade on main until bound.
func DeployEdgeFacade(srv *Server, main string, f *EdgeFacadeSpec) ([]*EdgeMethod, error) {
	out := make([]*EdgeMethod, len(f.Methods))
	methods := make(map[string]Method, len(f.Methods))
	for i := range f.Methods {
		out[i] = &EdgeMethod{EdgeMethodSpec: &f.Methods[i], Bean: f.Bean, main: main, Server: srv}
		methods[f.Methods[i].Name] = out[i].serve
	}
	_, err := DeployStateless(srv, f.Bean, methods)
	return out, err
}

// Bind wires m's edge: from now on it reads these replicas and cache (nil
// when the edge has none).
func (m *EdgeMethod) Bind(replicas map[string]*ROEntity, cache *QueryCache) {
	m.Replicas = make([]*ROEntity, len(m.Beans))
	for i, b := range m.Beans {
		m.Replicas[i] = replicas[b]
	}
	m.owner, m.Cache, m.wired = replicas[m.Owner], cache, true
}

// Wired reports whether m's edge is wired.
func (m *EdgeMethod) Wired() bool { return m.wired }

// serve answers inv. A cache hit answers the cached object, never the
// caller's record, and a cache fill passes no record: the cache keeps what
// the fill returns.
func (m *EdgeMethod) serve(p *sim.Proc, inv *Invocation) (any, error) {
	switch {
	case m.Handler != nil && m.wired:
		return m.Handler(p, m, inv)
	case m.SQL != "" && m.wired:
		res, err := m.Server.SQLReplica(p, m.SQL, m.Args(inv.Args)...)
		return Reply(inv, RowsOf(res), err)
	case m.Query != "" && m.Cache != nil && (m.owner == nil || m.owner.Owns(inv.Args[0])):
		return m.Cache.Get(p, m.Key(inv.Args))
	}
	return m.Delegate(p, inv)
}

// Delegate calls main's method of the same name with inv's arguments and
// reply record, which main's answer fills: one WAN call.
func (m *EdgeMethod) Delegate(p *sim.Proc, inv *Invocation) (any, error) {
	stub, err := m.Server.StubFor(p, m.main, m.Bean)
	if err != nil {
		return nil, err
	}
	return stub.InvokeInto(p, inv.Out, m.Name, inv.Args...)
}
