package dbrepl

import (
	"testing"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
)

func initKV(db *sqldb.DB) error {
	if _, err := db.Exec(`CREATE TABLE kv (id INT PRIMARY KEY, v INT NOT NULL)`); err != nil {
		return err
	}
	_, err := db.Exec(`INSERT INTO kv VALUES (1, 0), (2, 0)`)
	return err
}

type fixture struct {
	env     *sim.Env
	net     *simnet.Network
	primary *Primary
	main    *sqldb.DB
	replica *Replica
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	env := sim.NewEnv(3)
	net := simnet.New(env)
	for _, id := range []string{"main", "edge"} {
		if _, err := net.AddNode(id, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddLink("main", "edge", 100*time.Millisecond, 1e12); err != nil {
		t.Fatal(err)
	}
	main := sqldb.New()
	if err := initKV(main); err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(net, "main", main)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Attach("edge")
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{env: env, net: net, primary: p, main: main, replica: r}
}

// counts reads the statements shipped, applied and failed on apply off the
// environment's registry.
func (f *fixture) counts() (shipped, applied, failed int64) {
	reg := f.env.Metrics()
	return reg.CounterValue("dbrepl_shipped_total"), reg.CounterValue("dbrepl_applied_total"), reg.CounterValue("dbrepl_failed_total")
}

func TestWritesStreamToReplica(t *testing.T) {
	f := newFixture(t)
	f.env.Spawn("writer", func(p *sim.Proc) {
		for i := 1; i <= 5; i++ {
			if _, err := f.main.Exec(`UPDATE kv SET v = ? WHERE id = 1`, sqldb.Int(int64(i))); err != nil {
				t.Errorf("update: %v", err)
			}
			p.Sleep(10 * time.Millisecond)
		}
	})
	f.env.RunAll()
	f.env.Close()
	if shipped, applied, failed := f.counts(); shipped != 5 || applied != 5 || failed != 0 {
		t.Fatalf("shipped=%d applied=%d failed=%d", shipped, applied, failed)
	}
	r, err := f.replica.DB.Exec(`SELECT v FROM kv WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].AsInt() != 5 {
		t.Fatalf("replica v = %v, want 5 (converged)", r.Rows[0][0])
	}
	// Async shipping: lag is about one WAN one-way.
	lag := f.env.Metrics().FindHistogram("dbrepl_apply_lag_ns")
	if mean := lag.Mean(); mean < 100*time.Millisecond || mean > 300*time.Millisecond {
		t.Fatalf("mean lag = %v", mean)
	}
	if lag.Max() < lag.Mean() {
		t.Fatal("max lag below mean")
	}
}

func TestWriterNeverBlocksOnReplication(t *testing.T) {
	f := newFixture(t)
	var writeCost time.Duration
	f.env.Spawn("writer", func(p *sim.Proc) {
		start := p.Now()
		if _, err := f.main.Exec(`UPDATE kv SET v = 9 WHERE id = 1`); err != nil {
			t.Errorf("update: %v", err)
		}
		writeCost = p.Now() - start
	})
	f.env.RunAll()
	f.env.Close()
	if writeCost != 0 {
		t.Fatalf("write blocked %v on replication", writeCost)
	}
}

func TestFailedWritesAreNotReplicated(t *testing.T) {
	f := newFixture(t)
	// A multi-row insert that fails part-way rolls back and ships nothing.
	if _, err := f.main.Exec(`INSERT INTO kv VALUES (3, 0), (1, 0)`); err == nil {
		t.Fatal("duplicate key accepted")
	}
	f.env.RunAll()
	if shipped, _, _ := f.counts(); shipped != 0 {
		t.Fatalf("failed insert shipped %d statements", shipped)
	}
	// Writes that succeed ship in order.
	if _, err := f.main.Exec(`UPDATE kv SET v = 1 WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	if _, err := f.main.Exec(`UPDATE kv SET v = 2 WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	f.env.RunAll()
	f.env.Close()
	if shipped, applied, _ := f.counts(); shipped != 2 || applied != 2 {
		t.Fatalf("shipped=%d applied=%d", shipped, applied)
	}
	r, _ := f.replica.DB.Exec(`SELECT v FROM kv WHERE id = 2`)
	if r.Rows[0][0].AsInt() != 2 {
		t.Fatalf("replica v = %v, want 2 (ordered apply)", r.Rows[0][0])
	}
	if r, _ := f.replica.DB.Exec(`SELECT * FROM kv WHERE id = 3`); r.Len() != 0 {
		t.Fatal("replica holds the failed insert's first row")
	}
}

func TestSelectsAreNotReplicated(t *testing.T) {
	f := newFixture(t)
	if _, err := f.main.Exec(`SELECT * FROM kv`); err != nil {
		t.Fatal(err)
	}
	// Zero-row writes are not shipped either.
	if _, err := f.main.Exec(`UPDATE kv SET v = 1 WHERE id = 999`); err != nil {
		t.Fatal(err)
	}
	f.env.RunAll()
	f.env.Close()
	if shipped, _, _ := f.counts(); shipped != 0 {
		t.Fatalf("shipped = %d, want 0", shipped)
	}
}

func TestValidation(t *testing.T) {
	env := sim.NewEnv(1)
	net := simnet.New(env)
	if _, err := net.AddNode("main", 1); err != nil {
		t.Fatal(err)
	}
	db := sqldb.New()
	if _, err := NewPrimary(net, "ghost", db); err == nil {
		t.Fatal("primary on missing node accepted")
	}
	p, err := NewPrimary(net, "main", db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Attach("ghost"); err == nil {
		t.Fatal("replica on missing node accepted")
	}
	if len(p.replicas) != 0 {
		t.Fatalf("replicas = %d", len(p.replicas))
	}
}

// TestLateAttachHoldsEarlierCommits: a replica attached after N commits
// holds them, from the snapshot Attach takes, and receives the next ones in
// commit order.
func TestLateAttachHoldsEarlierCommits(t *testing.T) {
	f := newFixture(t)
	if _, err := f.net.AddNode("late", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.net.AddLink("main", "late", 50*time.Millisecond, 1e12); err != nil {
		t.Fatal(err)
	}
	insert := func(from, to int) {
		for i := from; i <= to; i++ {
			if _, err := f.main.Exec(`INSERT INTO kv VALUES (?, ?)`, sqldb.Int(int64(i)), sqldb.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
			if _, err := f.main.Exec(`UPDATE kv SET v = ? WHERE id = 1`, sqldb.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var late *Replica
	f.env.Spawn("writer", func(p *sim.Proc) {
		insert(3, 7) // five commits before the attach
		p.Sleep(time.Second)
		var err error
		if late, err = f.primary.Attach("late"); err != nil {
			t.Error(err)
			return
		}
		insert(8, 10)
	})
	f.env.RunAll()
	f.env.Close()
	for _, db := range []*sqldb.DB{f.replica.DB, late.DB} {
		res, err := db.Exec(`SELECT id, v FROM kv ORDER BY id`)
		if err != nil {
			t.Fatal(err)
		}
		// id 1 holds the last of its updates, applied in order.
		want := []int64{10, 0, 3, 4, 5, 6, 7, 8, 9, 10}
		if res.Len() != len(want) {
			t.Fatalf("replica holds %d rows, want %d", res.Len(), len(want))
		}
		for i, row := range res.Rows {
			if row[0].AsInt() != int64(i+1) || row[1].AsInt() != want[i] {
				t.Errorf("row %d = %v, want id %d v %d", i, row, i+1, want[i])
			}
		}
	}
}
