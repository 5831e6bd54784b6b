package experiment

import (
	"fmt"
	"strings"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/petstore"
	"wadeploy/internal/rubis"
)

// ConsistencyArm is one point on the staleness-latency spectrum: a name and
// the replication options that pin the whole deployment to that point.
// A nil Replication is the paper's asynchronous-updates baseline.
type ConsistencyArm struct {
	Name        string
	Replication *core.ReplicationOptions
}

// ConsistencyArms is the spectrum swept by RunConsistency, ordered from
// strongest to weakest consistency: synchronous full-state pushes (the
// paper's sync path), synchronous deltas, bounded-staleness leases at three
// budgets, batched asynchronous deltas, and the paper's plain asynchronous
// updates.
func ConsistencyArms() []ConsistencyArm {
	lease := func(d time.Duration) *core.ReplicationOptions {
		return &core.ReplicationOptions{
			Mode:            container.LeaseUpdate,
			MaxStaleness:    d,
			DeltasByDefault: true,
		}
	}
	return []ConsistencyArm{
		{Name: "sync", Replication: &core.ReplicationOptions{Mode: container.SyncUpdate}},
		{Name: "sync-delta", Replication: &core.ReplicationOptions{Mode: container.SyncUpdate, DeltasByDefault: true}},
		{Name: "lease-250ms", Replication: lease(250 * time.Millisecond)},
		{Name: "lease-1s", Replication: lease(time.Second)},
		{Name: "lease-5s", Replication: lease(5 * time.Second)},
		{Name: "async-batched-250ms", Replication: &core.ReplicationOptions{
			Mode:            container.AsyncUpdate,
			BatchWindow:     250 * time.Millisecond,
			DeltasByDefault: true,
		}},
		{Name: "async", Replication: nil},
	}
}

// ConsistencyResult is one arm's measured point: the write-page response
// times the clients saw, the replica staleness the pushes delivered, and the
// WAN message cost per committed write.
type ConsistencyResult struct {
	App AppID
	Arm ConsistencyArm

	// Write-page (PetStore Buyer/Commit, RUBiS Bidder/StoreBid) mean
	// response times by client locality.
	Pattern     string
	Page        string
	WriteLocal  time.Duration
	WriteRemote time.Duration

	// Replica staleness (commit to replica apply) over every push the run
	// delivered; zero Samples means the arm produced no staleness data.
	StaleSamples int64
	StaleMean    time.Duration
	StaleP95     time.Duration
	StaleMax     time.Duration

	// WAN propagation cost: messages (sync pushes + async publishes +
	// batched flush messages) per committed entity write.
	Commits int64
	Msgs    int64

	// Full is the underlying run (all cells, metrics snapshot).
	Full *Result
}

// MsgsPerCommit returns Msgs/Commits, or 0 when nothing committed.
func (r *ConsistencyResult) MsgsPerCommit() float64 {
	if r.Commits == 0 {
		return 0
	}
	return float64(r.Msgs) / float64(r.Commits)
}

// RunConsistency sweeps the staleness-latency spectrum: the application's
// asynchronous-updates configuration re-run once per arm with the
// replication override pinning every replica to that arm's propagation mode.
// Each arm is an independent seeded simulation, so any Parallelism yields
// byte-identical results.
func RunConsistency(app AppID, opts RunOptions) ([]*ConsistencyResult, error) {
	arms := ConsistencyArms()
	pattern, page := petstore.PatternBuyer, petstore.PageCommit
	if app == RUBiS {
		pattern, page = rubis.PatternBidder, rubis.PageStoreBid
	}
	out := make([]*ConsistencyResult, len(arms))
	err := forEachParallel(opts.Parallelism, len(arms), func(i int) error {
		ropts := opts
		ropts.Replication = arms[i].Replication
		full, err := Run(app, core.AsyncUpdates, ropts)
		if err != nil {
			return fmt.Errorf("arm %s: %w", arms[i].Name, err)
		}
		cr := &ConsistencyResult{
			App:         app,
			Arm:         arms[i],
			Pattern:     pattern,
			Page:        page,
			WriteLocal:  full.Mean(pattern, page, true),
			WriteRemote: full.Mean(pattern, page, false),
			Commits:     full.Metrics.Counter("container_ejb_store_total"),
			Full:        full,
		}
		cr.Msgs = full.Metrics.Counter("container_sync_pushes_total") +
			full.Metrics.Counter("container_async_publishes_total") +
			full.Metrics.Counter("push_batch_messages_total")
		if h := full.Metrics.Histogram("container_replica_staleness_ns"); h != nil && h.Count > 0 {
			cr.StaleSamples = h.Count
			cr.StaleMean = time.Duration(h.SumNs / h.Count)
			cr.StaleP95 = time.Duration(h.P95Ns)
			cr.StaleMax = time.Duration(h.MaxNs)
		}
		out[i] = cr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatConsistency renders the staleness-latency table: one row per arm,
// write-page response times against delivered replica staleness and WAN
// messages per commit.
func FormatConsistency(results []*ConsistencyResult) string {
	if len(results) == 0 {
		return "(no results)\n"
	}
	r0 := results[0]
	var b strings.Builder
	fmt.Fprintf(&b, "Consistency spectrum: %s, write page %s/%s (ms).\n",
		r0.App, r0.Pattern, short(r0.Page))
	fmt.Fprintf(&b, "%-20s %9s %10s %11s %10s %10s %12s\n",
		"Arm", "write-loc", "write-rem", "stale-mean", "stale-p95", "stale-max", "msgs/commit")
	fmt.Fprintln(&b, strings.Repeat("-", 88))
	for _, r := range results {
		stale := [3]string{"-", "-", "-"}
		if r.StaleSamples > 0 {
			stale = [3]string{ms(r.StaleMean), ms(r.StaleP95), ms(r.StaleMax)}
		}
		fmt.Fprintf(&b, "%-20s %9s %10s %11s %10s %10s %12.2f\n",
			r.Arm.Name, ms(r.WriteLocal), ms(r.WriteRemote),
			stale[0], stale[1], stale[2], r.MsgsPerCommit())
	}
	return b.String()
}
