package container

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"wadeploy/internal/jms"
	"wadeploy/internal/rmi"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

// Property: under synchronous push propagation, every read from a replica
// that happens after a write returns (at least) that write's value — zero
// staleness, for any interleaving of writes and reads.
func TestPropertySyncPushZeroStaleness(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		f := newPropFixture(seed)
		rw, ro := f.wire(pushRows[0])
		ok := true
		f.env.Spawn("driver", func(p *sim.Proc) {
			expected := int64(10) // seeded qty for i1
			ops := int(opsRaw%20) + 2
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				if rng.Intn(2) == 0 {
					expected++
					if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(expected)}); err != nil {
						ok = false
						return
					}
				} else {
					st, err := ro.Get(p, sqldb.Str("i1"))
					if err != nil {
						ok = false
						return
					}
					if st.Get("qty").AsInt() != expected {
						ok = false
						return
					}
				}
				p.Sleep(time.Duration(rng.Intn(50)) * time.Millisecond)
			}
		})
		f.env.RunAll()
		f.env.Close()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: on every row whose writer does not block (lease, async, batched
// async), replicas converge to the final written value once the simulation
// drains, for any write sequence.
func TestPropertyAsyncEventualConvergence(t *testing.T) {
	f := func(seed int64, opsRaw uint8, rowRaw uint8) bool {
		fx := newPropFixture(seed)
		rw, ro := fx.wire(pushRows[1+int(rowRaw)%3])
		final := int64(10)
		ok := true
		fx.env.Spawn("writer", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			ops := int(opsRaw%15) + 1
			for i := 0; i < ops; i++ {
				final = int64(100 + i)
				if _, err := rw.UpdateFields(p, sqldb.Str("i1"), State{"qty": sqldb.Int(final)}); err != nil {
					ok = false
					return
				}
				p.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
			}
		})
		fx.env.RunAll() // drains all async deliveries
		if !ok {
			return false
		}
		converged := true
		fx.env.Spawn("reader", func(p *sim.Proc) {
			st, err := ro.Get(p, sqldb.Str("i1"))
			if err != nil || st.Get("qty").AsInt() != final {
				converged = false
			}
		})
		fx.env.RunAll()
		fx.env.Close()
		return converged
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// fixtureP mirrors the test fixture but without *testing.T plumbing so it
// can run inside testing/quick property functions.
type fixtureP struct {
	env  *sim.Env
	main *Server
	edge *Server
}

func newPropFixture(seed int64) *fixtureP {
	env := sim.NewEnv(seed)
	net := simnet.New(env)
	for _, id := range []string{"main", "edge"} {
		if _, err := net.AddNode(id, 2); err != nil {
			panic(err)
		}
	}
	if _, err := net.AddLink("main", "edge", 100*time.Millisecond, 1e12); err != nil {
		panic(err)
	}
	db := sqldb.New()
	mustExecP(db, `CREATE TABLE inventory (item_id TEXT PRIMARY KEY, qty INT NOT NULL)`)
	mustExecP(db, `INSERT INTO inventory VALUES ('i1', 10)`)
	rt := rmi.NewRuntime(net, rmi.DefaultOptions)
	provider, err := jms.NewProvider(net, "main", false)
	if err != nil {
		panic(err)
	}
	mk := func(name string) *Server {
		s, err := NewServer(Config{
			Name: name, DBNode: "main", DB: db, Net: net, RMI: rt, JMS: provider,
			Web: web.DefaultOptions,
		})
		if err != nil {
			panic(err)
		}
		return s
	}
	return &fixtureP{env: env, main: mk("main"), edge: mk("edge")}
}

// wire is wireRow on the property fixture, with the replica preloaded.
func (f *fixtureP) wire(row pushRow) (*RWEntity, *ROEntity) {
	rw, ro, _, err := wireRow(f.main, f.edge, row)
	if err != nil {
		panic(err)
	}
	f.preload(ro)
	return rw, ro
}

func (f *fixtureP) preload(ro *ROEntity) {
	ro.Preload(sqldb.Str("i1"), State{"item_id": sqldb.Str("i1"), "qty": sqldb.Int(10)})
}

func mustExecP(db *sqldb.DB, sql string) {
	if _, err := db.Exec(sql); err != nil {
		panic(fmt.Sprintf("%s: %v", sql, err))
	}
}
