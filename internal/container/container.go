// Package container implements an EJB-style component container model on top
// of the sim/simnet/rmi/jms/web/sqldb substrates: application servers,
// deployment descriptors, stateless and stateful session beans, entity beans
// (read-write and read-only replicas), message-driven update subscribers,
// query-result caches, and the update-propagation machinery behind the
// paper's read-mostly and asynchronous-update patterns.
//
// A Server corresponds to one JBoss/Jetty instance of the paper's testbed:
// it owns a node's CPU, a servlet container, a JNDI registry view, a stub
// cache (EJBHomeFactory) and the set of beans deployed on it. Beans are
// invoked through RMI stubs, so a co-located call costs local dispatch while
// a cross-server call pays the full wide-area RMI price.
package container

import (
	"errors"
	"fmt"
	"time"

	"wadeploy/internal/jms"
	"wadeploy/internal/metrics"
	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/trace"
	"wadeploy/internal/web"
)

// noopSpan avoids allocating a fresh closure on untraced SQL paths.
var noopSpan = func() {}

// Errors shared by the container layer.
var (
	ErrNoSuchBean   = errors.New("container: no such bean")
	ErrNoSuchMethod = errors.New("container: no such method")
	ErrNotDeployed  = errors.New("container: bean not deployed on this server")
)

// BeanKind enumerates the J2EE component kinds used by the paper.
type BeanKind int

// Bean kinds.
const (
	StatelessSession BeanKind = iota + 1
	StatefulSession
	Entity
	MessageDriven
)

func (k BeanKind) String() string {
	switch k {
	case StatelessSession:
		return "stateless-session"
	case StatefulSession:
		return "stateful-session"
	case Entity:
		return "entity"
	case MessageDriven:
		return "message-driven"
	default:
		return fmt.Sprintf("BeanKind(%d)", int(k))
	}
}

// Persistence selects entity-bean persistence management.
type Persistence int

// Persistence modes: bean-managed (hand-written SQL) or container-managed
// (SQL rendered from the abstract schema).
const (
	BMP Persistence = iota + 1
	CMP
)

// CostModel is the container-side CPU cost model.
type CostModel struct {
	// MethodCPU is charged per business-method invocation: transaction
	// demarcation, security checks and interceptors.
	MethodCPU time.Duration

	// EntityLoadCPU / EntityStoreCPU cover ejbLoad/ejbStore field
	// marshalling on top of the SQL cost.
	EntityLoadCPU  time.Duration
	EntityStoreCPU time.Duration

	// CacheHitCPU is the cost of serving state from a read-only bean or
	// query cache.
	CacheHitCPU time.Duration

	// JDBCRounds is the number of network round trips per SQL statement
	// between an application server and the database node (connection
	// management makes this exceed 1 for non-pooled access).
	JDBCRounds float64
}

// DefaultCostModel approximates the paper's JBoss 2.4/3.0 era containers.
var DefaultCostModel = CostModel{
	MethodCPU:      400 * time.Microsecond,
	EntityLoadCPU:  300 * time.Microsecond,
	EntityStoreCPU: 300 * time.Microsecond,
	CacheHitCPU:    150 * time.Microsecond,
	JDBCRounds:     1,
}

// Server is one application server: a container environment on a node.
type Server struct {
	name  string
	node  *simnet.Node
	net   *simnet.Network
	rt    *rmi.Runtime
	web   *web.Container
	db    *sqldb.DB
	dbSrv *simnet.Node // node the database runs on
	// dbRoute is the JDBC connection's route to the database node.
	dbRoute *simnet.Route
	jms     *jms.Provider
	costs   CostModel
	stubs   *rmi.StubCache

	beans map[string]*binding

	// replicaDB, when set, is a local asynchronous replica of the
	// deployment's database (dbrepl); SQLReplica reads execute against it
	// at local cost.
	replicaDB *sqldb.DB

	sqlStatements int64
	invs          sim.Free[Invocation] // envelopes of the business-method calls not in flight

	mSQL        *metrics.Counter
	mReplicaSQL *metrics.Counter
}

// binding records a bean deployed on this server.
type binding struct {
	name string
	kind BeanKind
}

// Config configures a Server.
type Config struct {
	Name   string // node ID this server runs on
	DBNode string // node ID the database runs on
	DB     *sqldb.DB
	Net    *simnet.Network
	RMI    *rmi.Runtime
	JMS    *jms.Provider // may be nil if the deployment does not use messaging
	Web    web.Options
	Costs  CostModel
}

// NewServer creates an application server on cfg.Name.
func NewServer(cfg Config) (*Server, error) {
	node := cfg.Net.Node(cfg.Name)
	if node == nil {
		return nil, fmt.Errorf("container: no such node %s", cfg.Name)
	}
	dbNode := cfg.Net.Node(cfg.DBNode)
	if dbNode == nil {
		return nil, fmt.Errorf("container: no such DB node %s", cfg.DBNode)
	}
	wc, err := web.NewContainer(cfg.Net, cfg.Name, cfg.Web)
	if err != nil {
		return nil, fmt.Errorf("container: web tier: %w", err)
	}
	reg := cfg.Net.Env().Metrics()
	return &Server{
		name:        cfg.Name,
		node:        node,
		net:         cfg.Net,
		rt:          cfg.RMI,
		web:         wc,
		db:          cfg.DB,
		dbSrv:       dbNode,
		dbRoute:     cfg.Net.Route(cfg.Name, cfg.DBNode),
		jms:         cfg.JMS,
		costs:       cfg.Costs,
		stubs:       rmi.NewStubCache(cfg.RMI, cfg.Name, bindPrefix),
		beans:       make(map[string]*binding),
		mSQL:        reg.CounterVec("container_sql_statements_total", "server").With(cfg.Name),
		mReplicaSQL: reg.CounterVec("container_replica_sql_statements_total", "server").With(cfg.Name),
	}, nil
}

// Name returns the server's node ID.
func (s *Server) Name() string { return s.name }

// Web returns the server's servlet container.
func (s *Server) Web() *web.Container { return s.web }

// RMI returns the shared RMI runtime.
func (s *Server) RMI() *rmi.Runtime { return s.rt }

// JMS returns the deployment's messaging provider (nil when unused).
func (s *Server) JMS() *jms.Provider { return s.jms }

// DB returns the shared database handle.
func (s *Server) DB() *sqldb.DB { return s.db }

// Costs returns the server's cost model.
func (s *Server) Costs() CostModel { return s.costs }

// Env returns the simulation environment.
func (s *Server) Env() *sim.Env { return s.net.Env() }

// Beans returns the number of beans deployed on this server.
func (s *Server) Beans() int { return len(s.beans) }

// HasBean reports whether a bean with the given name is deployed here.
func (s *Server) HasBean(name string) bool {
	_, ok := s.beans[name]
	return ok
}

// SQLStatements returns how many SQL statements this server has issued.
func (s *Server) SQLStatements() int64 { return s.sqlStatements }

// Compute charges d of CPU time on this server, queueing when all slots are
// busy.
func (s *Server) Compute(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	trace.Use(p, s.node.CPU, s.name, d)
}

// bindPrefix is the JNDI context beans are bound under; the stub cache adds
// it on a miss only, so a cached bean call builds no name.
const bindPrefix = "ejb/"

// bind registers a bean's invocation handler in this server's JNDI registry.
func (s *Server) bind(name string, kind BeanKind, h rmi.Handler) error {
	if _, dup := s.beans[name]; dup {
		return fmt.Errorf("container: bean %s already deployed on %s", name, s.name)
	}
	if _, err := s.rt.Bind(s.name, bindPrefix+name, h); err != nil {
		return fmt.Errorf("container: deploy %s on %s: %w", name, s.name, err)
	}
	s.beans[name] = &binding{name: name, kind: kind}
	return nil
}

// StubFor returns a cached stub for a bean deployed on targetServer,
// modeling the EJBHomeFactory pattern (one JNDI lookup ever, then cached).
func (s *Server) StubFor(p *sim.Proc, targetServer, bean string) (*rmi.Stub, error) {
	return s.stubs.Get(p, targetServer, bean)
}

// LookupUncached performs a full JNDI lookup (no stub caching) — the
// anti-pattern the EJBHomeFactory removes, kept for the centralized
// baseline and for tests that quantify the difference.
func (s *Server) LookupUncached(p *sim.Proc, targetServer, bean string) (*rmi.Stub, error) {
	return s.rt.Lookup(p, s.name, targetServer, bindPrefix+bean)
}

// AttachReplicaDB gives this server a local database replica for
// SQLReplica reads (the Section 6 database-replication extension).
func (s *Server) AttachReplicaDB(db *sqldb.DB) { s.replicaDB = db }

// HasReplicaDB reports whether a local database replica is attached.
func (s *Server) HasReplicaDB() bool { return s.replicaDB != nil }

// SQLReplica executes a read-only statement against this server's local
// database replica: no JDBC round trips, cost charged to this node's CPU.
func (s *Server) SQLReplica(p *sim.Proc, query string, args ...sqldb.Value) (sqldb.Result, error) {
	if s.replicaDB == nil {
		return sqldb.Result{}, fmt.Errorf("container: %s has no replica DB", s.name)
	}
	s.sqlStatements++
	s.mReplicaSQL.Inc()
	endSQL := noopSpan
	if trace.Active(p) {
		endSQL = trace.Op(p, "sql-replica", s.replicaDB.Describe(query), s.name, "", trace.CauseService)
	}
	defer endSQL()
	res, err := s.replicaDB.Exec(query, args...)
	if err != nil {
		return sqldb.Result{}, err
	}
	trace.Use(p, s.node.CPU, s.name, res.Cost)
	return res, nil
}

// SQL executes one statement against the deployment's database on behalf of
// this server: JDBC round trips to the DB node (when remote) plus the
// statement's cost charged to the DB node's CPU.
func (s *Server) SQL(p *sim.Proc, query string, args ...sqldb.Value) (sqldb.Result, error) {
	s.sqlStatements++
	s.mSQL.Inc()
	remote := s.dbSrv.ID != s.name
	endSQL := noopSpan
	if trace.Active(p) {
		sqlCause := trace.CauseService
		var sqlPeer string
		if remote {
			sqlPeer = s.name
			if s.dbRoute.WideArea() {
				sqlCause = trace.CauseWAN
			}
		}
		endSQL = trace.Op(p, "sql", s.db.Describe(query), s.dbSrv.ID, sqlPeer, sqlCause)
	}
	defer endSQL()
	if remote {
		rounds := s.costs.JDBCRounds
		if rounds < 1 {
			rounds = 1
		}
		rtt, err := s.dbRoute.RTT()
		if err != nil {
			return sqldb.Result{}, fmt.Errorf("container: jdbc %s->%s: %w", s.name, s.dbSrv.ID, err)
		}
		p.Sleep(time.Duration(rounds * float64(rtt)))
	}
	res, err := s.db.Exec(query, args...)
	if err != nil {
		return sqldb.Result{}, err
	}
	// Charge the statement's service time to the database node's CPU.
	trace.Use(p, s.dbSrv.CPU, s.dbSrv.ID, res.Cost)
	return res, nil
}
