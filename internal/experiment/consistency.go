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

// ConsistencyArms returns the staleness-latency spectrum: base's
// application in its asynchronous-updates configuration, one arm per
// method of update that replaces every replica's own, ordered from
// strongest to weakest consistency: synchronous full-state pushes (the
// paper's sync path), synchronous deltas, bounded-staleness leases at three
// budgets (each flushing at half its budget, the other half left for WAN
// delivery and apply), batched asynchronous deltas, and the paper's plain
// asynchronous updates.
func ConsistencyArms(base Spec) []Spec {
	lease := func(d time.Duration) *container.Propagation {
		return &container.Propagation{Window: d / 2, Delta: true, MaxStaleness: d}
	}
	arms := []struct {
		label  string
		update *container.Propagation
	}{
		{"sync", &container.Propagation{}},
		{"sync-delta", &container.Propagation{Delta: true}},
		{"lease-250ms", lease(250 * time.Millisecond)},
		{"lease-1s", lease(time.Second)},
		{"lease-5s", lease(5 * time.Second)},
		{"async-batched-250ms", &container.Propagation{Async: true, Window: 250 * time.Millisecond, Delta: true}},
		{"async", nil},
	}
	specs := make([]Spec, len(arms))
	for i, a := range arms {
		specs[i] = base
		specs[i].Policy, specs[i].Label, specs[i].Propagation = core.AsyncUpdates, a.label, a.update
	}
	return specs
}

// spectrumPoint is one arm's measured point: the write-page response times
// the clients saw, the replica staleness the pushes delivered, and the WAN
// message cost per committed write.
type spectrumPoint struct {
	// Write-page (PetStore Buyer/Commit, RUBiS Bidder/StoreBid) mean
	// response times by client locality.
	writeLocal, writeRemote time.Duration

	// Replica staleness (commit to replica apply) over every push the run
	// delivered; zero samples means the arm produced no staleness data.
	staleSamples                  int64
	staleMean, staleP95, staleMax time.Duration

	// WAN propagation cost: messages (sync pushes + async publishes +
	// batched flush messages) per committed entity write.
	commits, msgs int64
}

// writePage is the application's commit page.
func writePage(app AppID) (pattern, page string) {
	if app == RUBiS {
		return rubis.PatternBidder, rubis.PageStoreBid
	}
	return petstore.PatternBuyer, petstore.PageCommit
}

func spectrum(r *Result) spectrumPoint {
	pattern, page := writePage(r.Spec.App)
	m := r.Metrics
	pt := spectrumPoint{
		writeLocal:  r.Mean(pattern, page, true),
		writeRemote: r.Mean(pattern, page, false),
		commits:     m.Counter("container_ejb_store_total"),
		msgs: m.Counter("container_sync_pushes_total") + m.Counter("container_async_publishes_total") +
			m.Counter("push_batch_messages_total"),
	}
	if h := m.Histogram("container_replica_staleness_ns"); h != nil && h.Count > 0 {
		pt.staleSamples = h.Count
		pt.staleMean = time.Duration(h.SumNs / h.Count)
		pt.staleP95 = time.Duration(h.P95Ns)
		pt.staleMax = time.Duration(h.MaxNs)
	}
	return pt
}

// msgsPerCommit returns msgs/commits, or 0 when nothing committed.
func (p spectrumPoint) msgsPerCommit() float64 {
	if p.commits == 0 {
		return 0
	}
	return float64(p.msgs) / float64(p.commits)
}

// FormatConsistency renders the staleness-latency table of ConsistencyArms'
// runs: one row per arm, write-page response times against delivered
// replica staleness and WAN messages per commit.
func FormatConsistency(results []*Result) string {
	if len(results) == 0 {
		return "(no results)\n"
	}
	app := results[0].Spec.App
	pattern, page := writePage(app)
	var b strings.Builder
	fmt.Fprintf(&b, "Consistency spectrum: %s, write page %s/%s (ms).\n", app, pattern, short(page))
	fmt.Fprintf(&b, "%-20s %9s %10s %11s %10s %10s %12s\n",
		"Arm", "write-loc", "write-rem", "stale-mean", "stale-p95", "stale-max", "msgs/commit")
	fmt.Fprintln(&b, strings.Repeat("-", 88))
	for _, r := range results {
		pt := spectrum(r)
		stale := [3]string{"-", "-", "-"}
		if pt.staleSamples > 0 {
			stale = [3]string{ms(pt.staleMean), ms(pt.staleP95), ms(pt.staleMax)}
		}
		fmt.Fprintf(&b, "%-20s %9s %10s %11s %10s %10s %12.2f\n",
			r.Spec.Label, ms(pt.writeLocal), ms(pt.writeRemote),
			stale[0], stale[1], stale[2], pt.msgsPerCommit())
	}
	return b.String()
}
