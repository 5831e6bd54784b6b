package experiment

import (
	"errors"
	"strings"
	"testing"
	"time"

	"wadeploy/internal/controller"
	"wadeploy/internal/core"
)

// adaptQuickSpec is a short canonical-schedule run: long enough for the
// controller to extend during warm-up and for the migrated caches to warm
// before the partition hits (an extension seconds before the outage would
// ride into it with cold query caches), short enough for CI.
func adaptQuickSpec() Spec {
	return Spec{
		App:        PetStore,
		Policy:     core.AsyncUpdates,
		Adaptive:   &controller.Options{Epoch: 10 * time.Second},
		RunOptions: RunOptions{Seed: 1, Warmup: time.Minute, Duration: 4 * time.Minute},
	}
}

// TestRunAdaptQuick asserts the experiment's headline claims on a quick run:
// the controller completes the extension program, reacts to the canonical
// partition, and the adaptive arm's availability through the outage window
// is no worse than the static-resilience baseline.
func TestRunAdaptQuick(t *testing.T) {
	arms, err := RunAll(AdaptArms(adaptQuickSpec()))
	if err != nil {
		t.Fatal(err)
	}
	static, resilient, adaptive := arms[0], arms[1], arms[2]
	ad := adaptive.Adapt
	if ad == nil {
		t.Fatal("adaptive arm has no controller report")
	}
	if !ad.Extended {
		t.Fatalf("controller never completed the extension program; events: %+v", ad.Events)
	}
	if _, _, ok := migrationSpan(adaptive); !ok {
		t.Error("no successful extension migrations recorded")
	}
	ls := lags(adaptive)
	if len(ls) == 0 {
		t.Fatal("no fault onsets to measure adaptation lag against")
	}
	if ls[0].detected == 0 {
		t.Error("the canonical partition was never detected")
	} else if got := ls[0].detected - ls[0].onset; got > 2*adaptQuickSpec().Adaptive.Epoch {
		t.Errorf("partition detected %v after onset, want within two epochs", got)
	}
	window := adaptive.Spec.window()
	aw := adaptive.Observed.Range(window[0], window[1])
	rw := resilient.Observed.Range(window[0], window[1])
	sw := static.Observed.Range(window[0], window[1])
	// At CI scale the adaptive arm's caches have only ~90s of traffic to
	// cover the key space before the partition (the resilient arm's are warm
	// from t=0), which costs a fraction of a point of availability; at
	// experiment scale (EXPERIMENTS.md, 20-minute horizon) the two arms are
	// equal. Allow that warmth gap here, nothing more.
	const warmthEps = 0.01
	if aw.SuccessRate() < rw.SuccessRate()-warmthEps {
		t.Errorf("adaptive availability %.3f below the resilient baseline %.3f",
			aw.SuccessRate(), rw.SuccessRate())
	}
	if aw.SuccessRate() <= sw.SuccessRate() {
		t.Errorf("adaptive availability %.3f not above the static remote façade %.3f",
			aw.SuccessRate(), sw.SuccessRate())
	}
	out := FormatAdapt(arms)
	for _, want := range []string{"Controller timeline:", "extend-decided", "Adaptation lag", "Availability"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}
}

// TestRunAdaptNeedsReplicaBundle: the adaptive arm wires its target's replica
// bundle for the controller, so a target with none fails naming the policy,
// for either app.
func TestRunAdaptNeedsReplicaBundle(t *testing.T) {
	for _, app := range []AppID{PetStore, RUBiS} {
		s := adaptQuickSpec()
		s.App, s.Policy = app, core.RemoteFacade
		s.Warmup, s.Duration = time.Second, 10*time.Second
		_, err := Run(s)
		if !errors.Is(err, core.ErrPolicy) || !strings.Contains(err.Error(), core.RemoteFacade.String()) {
			t.Errorf("Run(%s adaptive remote-facade) = %v, want a policy error naming it", app, err)
		}
	}
}

// TestAdaptWindowCountsItsBounds: the table's "during" row counts exactly
// the requests inside the outage window it names, the ones Observed.Pages
// holds per page, on a run whose window starts off a 10 s boundary.
func TestAdaptWindowCountsItsBounds(t *testing.T) {
	s := adaptQuickSpec()
	s.Warmup, s.Duration = 5*time.Second, 30*time.Second
	s.Adaptive.Epoch = 5 * time.Second
	arms, err := RunAll(AdaptArms(s))
	if err != nil {
		t.Fatal(err)
	}
	window := arms[0].Spec.window()
	if window[0]%(10*time.Second) == 0 {
		t.Fatalf("window %v starts on a 10 s boundary; the test needs one that does not", window)
	}
	for _, arm := range arms {
		var pages PageAvail
		for _, p := range arm.Observed.Pages {
			pages.OK += p.OK
			pages.Fail += p.Fail
		}
		if w := arm.Observed.Range(window[0], window[1]); w.OK != pages.OK || w.Fail != pages.Fail || w.OK+w.Fail == 0 {
			t.Errorf("%s: window [%v, %v) counts ok=%d fail=%d, its pages ok=%d fail=%d", arm.Spec.Label, window[0], window[1], w.OK, w.Fail, pages.OK, pages.Fail)
		}
	}
}
