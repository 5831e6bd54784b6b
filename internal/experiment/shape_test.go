package experiment

import (
	"sync"
	"testing"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/petstore"
	"wadeploy/internal/rubis"
)

// Full table runs are shared across shape tests.
var (
	tblOnce sync.Once
	psTable []*Result
	rbTable []*Result
	tblErr  error
)

func tables(t *testing.T) ([]*Result, []*Result) {
	t.Helper()
	tblOnce.Do(func() {
		psTable, tblErr = RunTable(PetStore, QuickRunOptions())
		if tblErr != nil {
			return
		}
		rbTable, tblErr = RunTable(RUBiS, QuickRunOptions())
	})
	if tblErr != nil {
		t.Fatal(tblErr)
	}
	return psTable, rbTable
}

func byConfig(results []*Result, cfg core.Policy) *Result {
	for _, r := range results {
		if r.Spec.Policy == cfg {
			return r
		}
	}
	return nil
}

func TestRunsProduceAllCellsWithoutErrors(t *testing.T) {
	ps, rb := tables(t)
	for _, set := range [][]*Result{ps, rb} {
		for _, r := range set {
			if r.Errors != 0 {
				t.Errorf("%s/%s: %d request errors", r.Spec.App, r.Spec.Policy, r.Errors)
			}
			if r.Samples < 1000 {
				t.Errorf("%s/%s: only %d samples", r.Spec.App, r.Spec.Policy, r.Samples)
			}
			for _, c := range r.Cells {
				if c.Local == 0 || c.Remote == 0 {
					t.Errorf("%s/%s: empty cell %s/%s", r.Spec.App, r.Spec.Policy, c.Pattern, c.Page)
				}
			}
		}
	}
}

// Shape 1 (Section 4.1): in the centralized configuration every page pays
// roughly two extra WAN round trips (~400ms) for remote clients.
func TestShapeCentralizedRemotePenalty(t *testing.T) {
	ps, rb := tables(t)
	for _, r := range []*Result{byConfig(ps, core.Centralized), byConfig(rb, core.Centralized)} {
		for _, c := range r.Cells {
			delta := c.Remote - c.Local
			if delta < 350*time.Millisecond || delta > 480*time.Millisecond {
				t.Errorf("%s %s/%s: remote-local = %v, want ~400ms", r.Spec.App, c.Pattern, c.Page, delta)
			}
		}
	}
}

// Shape 2 (Section 4.2): the remote façade serves session-state pages
// locally for remote clients, leaves shared-state pages at ~1 RMI call, and
// VerifySignin (two RMI calls) costs about twice a one-call page.
func TestShapeRemoteFacade(t *testing.T) {
	ps, _ := tables(t)
	r := byConfig(ps, core.RemoteFacade)
	for _, page := range []string{petstore.PageSignin, petstore.PageCheckout, petstore.PagePlaceOrder, petstore.PageBilling, petstore.PageSignout} {
		if m := r.Mean(petstore.PatternBuyer, page, false); m > 200*time.Millisecond {
			t.Errorf("remote %s = %v, want session-local", page, m)
		}
	}
	if m := r.Mean(petstore.PatternBrowser, petstore.PageMain, false); m > 200*time.Millisecond {
		t.Errorf("remote Main = %v, want local", m)
	}
	cat := r.Mean(petstore.PatternBrowser, petstore.PageCategory, false)
	if cat < 250*time.Millisecond || cat > 550*time.Millisecond {
		t.Errorf("remote Category = %v, want ~1 RMI call", cat)
	}
	verif := r.Mean(petstore.PatternBuyer, petstore.PageVerifySignin, false)
	if verif < cat+200*time.Millisecond {
		t.Errorf("remote VerifySignin = %v vs Category %v, want ~2 RMI calls", verif, cat)
	}
	// Centralized remote clients were strictly worse on shared pages.
	centr := byConfig(ps, core.Centralized)
	if c0 := centr.Mean(petstore.PatternBrowser, petstore.PageCategory, false); cat >= c0 {
		t.Errorf("façade Category remote %v not better than centralized %v", cat, c0)
	}
}

// Shape 3 (Section 4.3): read-only beans make Item-style pages local
// everywhere, while write pages get significantly worse because writers
// block while pushes cross the WAN; the RUBiS bidder average increases.
func TestShapeStatefulCaching(t *testing.T) {
	ps, rb := tables(t)
	sc, rf := byConfig(ps, core.StatefulCaching), byConfig(ps, core.RemoteFacade)
	if m := sc.Mean(petstore.PatternBrowser, petstore.PageItem, false); m > 200*time.Millisecond {
		t.Errorf("remote Item = %v, want local (read-only beans)", m)
	}
	if m := sc.Mean(petstore.PatternBuyer, petstore.PageCart, false); m > 250*time.Millisecond {
		t.Errorf("remote Cart = %v, want local (read-only beans)", m)
	}
	// Commit gets worse for both localities (blocking push to two edges).
	for _, local := range []bool{true, false} {
		before := rf.Mean(petstore.PatternBuyer, petstore.PageCommit, local)
		after := sc.Mean(petstore.PatternBuyer, petstore.PageCommit, local)
		if after < before+300*time.Millisecond {
			t.Errorf("Commit local=%v: %v -> %v, want blocking-push increase", local, before, after)
		}
	}
	// Category/Product (aggregate queries) still pay a remote call.
	if m := sc.Mean(petstore.PatternBrowser, petstore.PageCategory, false); m < 250*time.Millisecond {
		t.Errorf("remote Category = %v, want still remote (aggregate query)", m)
	}
	// RUBiS: the bidder's session average increases vs the façade config.
	rsc, rrf := byConfig(rb, core.StatefulCaching), byConfig(rb, core.RemoteFacade)
	if rsc.SessionMeans[rubis.PatternBidder][true] <= rrf.SessionMeans[rubis.PatternBidder][true] {
		t.Errorf("RUBiS local bidder mean %v -> %v, want increase (blocking on stores)",
			rrf.SessionMeans[rubis.PatternBidder][true], rsc.SessionMeans[rubis.PatternBidder][true])
	}
	// RUBiS Item page becomes local for remote clients.
	if m := rsc.Mean(rubis.PatternBrowser, rubis.PageItem, false); m > 150*time.Millisecond {
		t.Errorf("RUBiS remote Item = %v, want local", m)
	}
}

// Shape 4 (Section 4.4): query caching makes listing pages local at the
// edges; the Pet Store keyword Search stays remote; writers still block.
func TestShapeQueryCaching(t *testing.T) {
	ps, rb := tables(t)
	qc := byConfig(ps, core.QueryCaching)
	for _, page := range []string{petstore.PageCategory, petstore.PageProduct} {
		if m := qc.Mean(petstore.PatternBrowser, page, false); m > 200*time.Millisecond {
			t.Errorf("remote %s = %v, want cached locally", page, m)
		}
	}
	if m := qc.Mean(petstore.PatternBrowser, petstore.PageSearch, false); m < 250*time.Millisecond {
		t.Errorf("remote Search = %v, want still remote (uncached keyword query)", m)
	}
	if m := qc.Mean(petstore.PatternBuyer, petstore.PageCommit, false); m < 600*time.Millisecond {
		t.Errorf("remote Commit = %v, want still blocked on sync push", m)
	}
	// RUBiS: the remote browser becomes indistinguishable from local.
	rqc := byConfig(rb, core.QueryCaching)
	rb1 := rqc.SessionMeans[rubis.PatternBrowser][false]
	lb1 := rqc.SessionMeans[rubis.PatternBrowser][true]
	if rb1 > lb1+30*time.Millisecond {
		t.Errorf("RUBiS remote browser mean %v vs local %v, want indistinguishable", rb1, lb1)
	}
}

// Shape 5 (Section 4.5): asynchronous updates recover write performance
// without hurting the insulated remote browsers; the final configuration is
// the best overall (the Figure 7/8 ordering).
func TestShapeAsyncUpdates(t *testing.T) {
	ps, rb := tables(t)
	au, qc := byConfig(ps, core.AsyncUpdates), byConfig(ps, core.QueryCaching)
	for _, local := range []bool{true, false} {
		before := qc.Mean(petstore.PatternBuyer, petstore.PageCommit, local)
		after := au.Mean(petstore.PatternBuyer, petstore.PageCommit, local)
		if after > before-300*time.Millisecond {
			t.Errorf("Commit local=%v: %v -> %v, want async recovery", local, before, after)
		}
	}
	if m := au.Mean(petstore.PatternBrowser, petstore.PageItem, false); m > 200*time.Millisecond {
		t.Errorf("remote Item = %v after async, want still local", m)
	}
	rau, rqc := byConfig(rb, core.AsyncUpdates), byConfig(rb, core.QueryCaching)
	for _, page := range []string{rubis.PageStoreBid, rubis.PageStoreComment} {
		before := rqc.Mean(rubis.PatternBidder, page, true)
		after := rau.Mean(rubis.PatternBidder, page, true)
		if after > before-300*time.Millisecond {
			t.Errorf("RUBiS %s local: %v -> %v, want async recovery", page, before, after)
		}
	}
	// Figure ordering: async-updates has the lowest remote session means.
	for _, tc := range []struct {
		results []*Result
		pattern string
	}{
		{ps, petstore.PatternBrowser},
		{ps, petstore.PatternBuyer},
		{rb, rubis.PatternBrowser},
		{rb, rubis.PatternBidder},
	} {
		best := byConfig(tc.results, core.AsyncUpdates).SessionMeans[tc.pattern][false]
		for _, r := range tc.results {
			if r.Spec.Policy == core.AsyncUpdates {
				continue
			}
			if other := r.SessionMeans[tc.pattern][false]; best > other+20*time.Millisecond {
				t.Errorf("%s remote %s: async %v worse than %s %v",
					r.Spec.App, tc.pattern, best, r.Spec.Policy, other)
			}
		}
	}
}

// The JMS path must actually carry the async updates.
func TestAsyncConfigUsesJMS(t *testing.T) {
	ps, rb := tables(t)
	for _, set := range [][]*Result{ps, rb} {
		au := byConfig(set, core.AsyncUpdates).Metrics
		pub, del := au.Counter("jms_published_total"), au.Counter("jms_delivered_total")
		if pub == 0 || del == 0 {
			t.Errorf("%s async: jms pub=%d del=%d, want traffic", set[0].Spec.App, pub, del)
		}
		if pub := byConfig(set, core.QueryCaching).Metrics.Counter("jms_published_total"); pub != 0 {
			t.Errorf("%s sync config published %d JMS messages", set[0].Spec.App, pub)
		}
	}
}

func TestDeterministicTables(t *testing.T) {
	opts := RunOptions{Seed: 7, Warmup: 10 * time.Second, Duration: 60 * time.Second}
	r1, err := Run(Spec{App: PetStore, Policy: core.RemoteFacade, RunOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Spec{App: PetStore, Policy: core.RemoteFacade, RunOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	s1 := FormatTable([]*Result{r1})
	s2 := FormatTable([]*Result{r2})
	if s1 != s2 {
		t.Fatalf("nondeterministic run:\n%s\nvs\n%s", s1, s2)
	}
}

func TestFormatting(t *testing.T) {
	ps, _ := tables(t)
	tbl := FormatTable(ps)
	if len(tbl) == 0 || tbl[0] != 'T' {
		t.Fatalf("table format: %q...", tbl[:40])
	}
	fig := FormatFigure(ps)
	if len(fig) == 0 {
		t.Fatal("empty figure")
	}
	diag := FormatDiagnostics(ps)
	if len(diag) == 0 {
		t.Fatal("empty diagnostics")
	}
	if FormatTable(nil) == "" || FormatFigure(nil) == "" {
		t.Fatal("empty-input formatting broke")
	}
}

func TestRunUnknownApp(t *testing.T) {
	if _, err := Run(Spec{App: "nope", RunOptions: QuickRunOptions()}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// The paper kept server CPU under 40%; our calibration must too.
func TestServersNotOverloaded(t *testing.T) {
	ps, rb := tables(t)
	for _, set := range [][]*Result{ps, rb} {
		for _, r := range set {
			if r.MainCPUUtil > 0.45 {
				t.Errorf("%s/%s: main CPU %.0f%%, want < 45%%", r.Spec.App, r.Spec.Policy, 100*r.MainCPUUtil)
			}
		}
	}
}

// Extension (Section 6): edge database replicas absorb the keyword Search —
// the one read that application partitioning leaves remote.
func TestShapeDBReplicationExtension(t *testing.T) {
	r, err := Run(Spec{App: PetStore, Policy: core.DBReplication, RunOptions: QuickRunOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if m := r.Mean(petstore.PatternBrowser, petstore.PageSearch, false); m > 200*time.Millisecond {
		t.Errorf("remote Search = %v under DB replication, want local", m)
	}
	// Everything the async configuration achieved still holds.
	ps, _ := tables(t)
	au := byConfig(ps, core.AsyncUpdates)
	for _, page := range []string{petstore.PageItem, petstore.PageCategory} {
		ext := r.Mean(petstore.PatternBrowser, page, false)
		base := au.Mean(petstore.PatternBrowser, page, false)
		if ext > base+50*time.Millisecond {
			t.Errorf("%s regressed under DB replication: %v vs %v", page, ext, base)
		}
	}
	if m := r.Mean(petstore.PatternBuyer, petstore.PageCommit, false); m > 600*time.Millisecond {
		t.Errorf("remote Commit = %v, want async-level", m)
	}
	if r.Errors != 0 {
		t.Errorf("errors = %d", r.Errors)
	}
}
