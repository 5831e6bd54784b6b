package experiment

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"wadeploy/internal/faults"
)

// The engine-v2 determinism gate: Tables 6-7 and Figures 7-8 rendered from
// the quick-run options are pinned byte-identical to goldens captured with
// the pre-wheel, pre-task engine (single binary min-heap, goroutine-only
// processes). Any event-ordering change in the sim core — a timer-wheel slot
// firing out of (at, seq) order, a task scheduled ahead of a process
// resumption, a shard barrier leaking across rounds — shows up here as a
// table diff. The faulted variant additionally pins the fault-RNG stream
// under faults.Canonical.
//
// Regenerate (only when an output change is intended and explained):
//
//	go test ./internal/experiment -run TestEngineGolden -update

// engineGoldenOptions is the gate's fixed methodology: quick-run length,
// seed 1, warm-up discard — long enough that all five configurations
// produce full tables, short enough for CI.
func engineGoldenOptions(parallelism int) RunOptions {
	return RunOptions{
		Seed:        1,
		Warmup:      30 * time.Second,
		Duration:    4 * time.Minute,
		Parallelism: parallelism,
	}
}

func renderAll(results []*Result) string {
	return FormatTable(results) + FormatTableP95(results) +
		FormatFigure(results) + FormatDiagnostics(results)
}

// TestEngineGoldenTables pins Table 6/7 + Figure 7/8 output at -parallel 1
// and 8 against the pre-engine-swap goldens.
func TestEngineGoldenTables(t *testing.T) {
	for _, app := range []AppID{PetStore, RUBiS} {
		name := "engine_" + string(app)
		for _, par := range []int{1, 8} {
			results, err := RunTable(app, engineGoldenOptions(par))
			if err != nil {
				t.Fatal(err)
			}
			got := renderAll(results)
			if par != 1 {
				// The golden is written once from the sequential run; the
				// parallel run must match it byte for byte.
				path := filepath.Join("testdata", name+".golden")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden %s: %v", path, err)
				}
				if got != string(want) {
					t.Errorf("%s: -parallel %d differs from golden", name, par)
				}
				continue
			}
			checkGolden(t, name, got)
		}
	}
}

// TestEngineGoldenFaulted pins the faulted variant: the canonical WAN-outage
// schedule plus default resilience, Pet Store, -parallel 1 and 8.
func TestEngineGoldenFaulted(t *testing.T) {
	run := func(par int) string {
		opts := engineGoldenOptions(par)
		s := Spec{App: PetStore, Schedule: faults.Canonical(opts.Warmup, opts.Duration), RunOptions: opts}
		results, err := RunAll(Table(s, false))
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(results)
	}
	seq := run(1)
	checkGolden(t, "engine_petstore_faulted", seq)
	if par := run(8); par != seq {
		t.Error("faulted table at -parallel 8 differs from sequential run")
	}
}
