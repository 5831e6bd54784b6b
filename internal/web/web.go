// Package web models the web tier: a servlet container per application
// server and an HTTP client primitive whose cost model matches the paper's
// setup — no keep-alive connections, so every page request pays one TCP
// handshake round trip plus one request/response round trip (the "extra
// 400 ms" remote clients observe against a centralized server).
//
// HTTP session state (the servlet HTTPSession) is modeled by Session, which
// lives on the web tier: in distributed configurations each client group's
// sessions are held by its collocated edge server.
//
// A handler's *Request is an envelope the Container recycles once the handler
// returns, so a handler copies what it keeps; a *Response may be shared.
package web

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/trace"
)

// ErrNoSuchPage is returned for requests to unregistered pages.
var ErrNoSuchPage = errors.New("web: no such page")

// Session is per-client web-tier state (HTTPSession attributes).
type Session struct {
	ID    string
	Node  string // web container holding the session
	attrs map[string]any
}

// NewSession creates an empty session pinned to a container node.
func NewSession(id, node string) *Session {
	return &Session{ID: id, Node: node, attrs: make(map[string]any)}
}

// Get returns a session attribute, or nil.
func (s *Session) Get(key string) any { return s.attrs[key] }

// Set stores a session attribute.
func (s *Session) Set(key string, v any) { s.attrs[key] = v }

// Delete removes a session attribute.
func (s *Session) Delete(key string) { delete(s.attrs, key) }

// Request is one page request arriving at a servlet.
type Request struct {
	Page       string
	Params     map[string]string
	Session    *Session
	ClientNode string
}

// Param returns a request parameter ("" when absent).
func (r *Request) Param(key string) string { return r.Params[key] }

// Response is the servlet's reply; the container fills zero fields in a copy.
type Response struct {
	Status int
	Bytes  int // rendered page size
}

// Handler renders one page. Handlers run on the request's process and are
// responsible for charging their own business-logic CPU (the container
// charges dispatch CPU around them).
type Handler func(p *sim.Proc, req *Request) (*Response, error)

// The HTTP sizes of the paper's methodology (Section 3.3).
const (
	// HandshakeBytes is a TCP SYN or SYN-ACK segment.
	HandshakeBytes = 64

	// RequestBytes is the HTTP request size.
	RequestBytes = 512

	// DefaultPageBytes is the response size when the handler leaves
	// Response.Bytes zero.
	DefaultPageBytes = 8 * 1024
)

// Options is what the two application stacks set differently.
type Options struct {
	// DispatchCPU is the container-side cost of HTTP parsing and servlet
	// dispatch, charged against the server's CPU.
	DispatchCPU time.Duration
}

// DefaultOptions is Pet Store's servlet container.
var DefaultOptions = Options{DispatchCPU: 2 * time.Millisecond}

// Container is one server's servlet container (Jetty in the paper).
type Container struct {
	node     *simnet.Node
	net      *simnet.Network
	opts     Options
	servlets map[string]Handler
	conns    map[string]*conn // by client node
	reqs     sim.Free[Request]
	dflt     Response // what a nil response means

	mReqs     *metrics.Counter
	mErrors   *metrics.Counter
	mSessions *metrics.Counter
	pageVec   *metrics.CounterVec
}

// NewContainer creates a servlet container on the named node.
func NewContainer(net *simnet.Network, node string, opts Options) (*Container, error) {
	n := net.Node(node)
	if n == nil {
		return nil, fmt.Errorf("web: no such node %s", node)
	}
	reg := net.Env().Metrics()
	return &Container{
		node:      n,
		net:       net,
		opts:      opts,
		servlets:  make(map[string]Handler),
		conns:     make(map[string]*conn),
		dflt:      Response{Status: 200, Bytes: DefaultPageBytes},
		mReqs:     reg.CounterVec("web_requests_total", "server").With(node),
		mErrors:   reg.Counter("web_request_errors_total"),
		mSessions: reg.CounterVec("web_sessions_created_total", "server").With(node),
		pageVec:   reg.CounterVec("web_page_requests_total", "page"),
	}, nil
}

// NewSession creates an empty session pinned to this container, counting it
// in the web_sessions_created_total metric.
func (c *Container) NewSession(id string) *Session {
	c.mSessions.Inc()
	return NewSession(id, c.node.ID)
}

// Handle registers a servlet for a page name, replacing any previous one.
func (c *Container) Handle(page string, h Handler) {
	c.servlets[page] = h
}

// Pages returns the number of registered pages.
func (c *Container) Pages() int { return len(c.servlets) }

// serve dispatches the request to the servlet, charging dispatch CPU on the
// container's node. It never writes the handler's response.
func (c *Container) serve(p *sim.Proc, req *Request) (*Response, error) {
	h, ok := c.servlets[req.Page]
	if !ok {
		return nil, fmt.Errorf("web: %s on %s: %w", req.Page, c.node.ID, ErrNoSuchPage)
	}
	c.mReqs.Inc()
	c.pageVec.With(req.Page).Inc()
	trace.Use(p, c.node.CPU, c.node.ID, c.opts.DispatchCPU)
	resp, err := h(p, req)
	if err != nil {
		c.mErrors.Inc()
		return nil, err
	}
	if resp = cmp.Or(resp, &c.dflt); resp.Status == 0 || resp.Bytes == 0 {
		filled := *resp
		filled.Status, filled.Bytes = cmp.Or(resp.Status, 200), cmp.Or(resp.Bytes, c.dflt.Bytes)
		return &filled, nil
	}
	return resp, nil
}

// conn is one client node's pair of routes to the container, resolved on
// its first request and held for every later one.
type conn struct {
	up, down *simnet.Route // client -> server, server -> client
}

func (c *Container) conn(clientNode string) *conn {
	cn := c.conns[clientNode]
	if cn == nil {
		cn = &conn{up: c.net.Route(clientNode, c.node.ID), down: c.net.Route(c.node.ID, clientNode)}
		c.conns[clientNode] = cn
	}
	return cn
}

// Get performs one HTTP page request from clientNode against the container:
// TCP handshake, request transfer, servlet execution,
// response transfer. It returns the response and the total elapsed time.
func (c *Container) Get(p *sim.Proc, clientNode, page string, params map[string]string, sess *Session) (*Response, time.Duration, error) {
	start := p.Now()
	server := c.node.ID
	cn := c.conn(clientNode)
	// The http span's self-time is the request/response transfers; the
	// handshake and servlet work get their own child spans. Client-to-server
	// transfer time is WAN wait when the client sits across a wide link.
	netCause := trace.CauseService
	if trace.Active(p) && cn.up.WideArea() {
		netCause = trace.CauseWAN
	}
	defer trace.Opf(p, "http", server, clientNode, netCause, page, " @ ", server)()
	endTCP := trace.Opf(p, "tcp", server, clientNode, netCause, "handshake ", clientNode, " -> "+server)
	// TCP three-way handshake: one round trip before data flows, as no
	// connection is kept alive.
	err := cn.up.Transfer(p, HandshakeBytes)
	if err == nil {
		err = cn.down.Transfer(p, HandshakeBytes)
	}
	endTCP()
	if err != nil {
		return nil, 0, fmt.Errorf("web: connect %s->%s: %w", clientNode, server, err)
	}
	if err := cn.up.Transfer(p, RequestBytes); err != nil {
		return nil, 0, fmt.Errorf("web: request %s: %w", page, err)
	}
	req := c.reqs.Take(Request{Page: page, Params: params, Session: sess, ClientNode: clientNode})
	defer c.reqs.Put(req)
	endServe := trace.Op(p, "servlet", page, server, "", trace.CauseService)
	resp, err := c.serve(p, req)
	endServe()
	if err != nil {
		return nil, 0, err
	}
	if err := cn.down.Transfer(p, resp.Bytes); err != nil {
		return nil, 0, fmt.Errorf("web: response %s: %w", page, err)
	}
	return resp, p.Now() - start, nil
}
