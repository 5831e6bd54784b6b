package dbrepl

import (
	"reflect"
	"testing"
	"time"

	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
)

func TestShipRetryAppliesAfterHeal(t *testing.T) {
	f := newFixture(t)
	if err := f.net.SetLinkState("main", "edge", false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.main.Exec(`UPDATE kv SET v = 7 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	f.env.At(3*time.Second, func() {
		if err := f.net.SetLinkState("main", "edge", true); err != nil {
			t.Error(err)
		}
	})
	f.env.RunAll()
	f.env.Close()
	if _, applied, _ := f.counts(); applied != 1 {
		t.Fatalf("applied=%d, want the statement held until the heal", applied)
	}
}

// TestBacklogLagCountsFromCommit: a statement that waited out a partition in
// the backlog reports its lag from its commit, not from the drain that
// finally shipped it, so the lag histogram shows the outage.
func TestBacklogLagCountsFromCommit(t *testing.T) {
	const outage = 10 * time.Second
	f := newFixture(t)
	if err := f.net.SetLinkState("main", "edge", false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.main.Exec(`UPDATE kv SET v = 7 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	f.env.At(outage, func() {
		if err := f.net.SetLinkState("main", "edge", true); err != nil {
			t.Error(err)
		}
	})
	f.env.RunAll()
	f.env.Close()
	lag := f.env.Metrics().FindHistogram("dbrepl_apply_lag_ns")
	if lag.Count() != 1 || lag.Max() < outage {
		t.Fatalf("lag samples=%d max=%v, want 1 sample of at least the %v outage", lag.Count(), lag.Max(), outage)
	}
}

// TestPartitionBacklogConvergesInOrder: statements committed while the
// replica is cut off, and one committed after the heal but before the
// backlog drained, all reach the replica in commit order. The two UPDATEs
// of one row do not commute, so a statement that overtook an older one would
// show as a diverged row; a dropped one as a missing row.
func TestPartitionBacklogConvergesInOrder(t *testing.T) {
	f := newFixture(t)
	for _, db := range []*sqldb.DB{f.main, f.replica.DB} {
		if _, err := db.Exec(`CREATE TABLE note (id INT PRIMARY KEY, body TEXT NOT NULL)`); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.net.SetLinkState("main", "edge", false); err != nil {
		t.Fatal(err)
	}
	f.env.At(2500*time.Millisecond, func() {
		if err := f.net.SetLinkState("main", "edge", true); err != nil {
			t.Error(err)
		}
	})
	f.env.Spawn("writer", func(p *sim.Proc) {
		for _, step := range []struct {
			at  time.Duration
			sql string
		}{
			{0, `INSERT INTO note VALUES (1, 'a'), (2, 'b')`},
			{100 * time.Millisecond, `UPDATE kv SET v = 1 WHERE id = 1`},
			{2600 * time.Millisecond, `UPDATE kv SET v = 2 WHERE id = 1 AND v = 1`},
			{2700 * time.Millisecond, `INSERT INTO kv VALUES (3, 7)`},
		} {
			p.Sleep(step.at - p.Now())
			if _, err := f.main.Exec(step.sql); err != nil {
				t.Errorf("%s: %v", step.sql, err)
			}
		}
	})
	f.env.RunAll()
	f.env.Close()

	for _, q := range []string{`SELECT * FROM kv ORDER BY id`, `SELECT * FROM note ORDER BY id`} {
		want, err := f.main.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.replica.DB.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: replica %v, primary %v", q, got.Rows, want.Rows)
		}
	}
	// Nothing dropped: every shipped statement applied.
	if shipped, applied, failed := f.counts(); applied != shipped || failed != 0 {
		t.Fatalf("shipped=%d applied=%d failed=%d", shipped, applied, failed)
	}
}
