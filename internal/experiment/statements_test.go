package experiment

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"wadeploy/internal/core"
	"wadeploy/internal/faults"
	"wadeploy/internal/simnet"
	"wadeploy/internal/trace"
)

// TestStatementInventory pins the SQL the applications issue: every distinct
// statement text the deployment's database was asked to prepare, over quick
// runs of every configuration of both applications (the DB-replication
// extension row included) and the adaptive arm. sqldb implements exactly
// this grammar (make inventory), so a new statement text must show up
// here, in review, before the engine grows to serve it. Each line carries
// the number of runs that prepared the text.
//
// Regenerate: go test ./internal/experiment -run TestStatementInventory -update
func TestStatementInventory(t *testing.T) {
	type arm struct {
		cfg  core.Policy
		opts RunOptions
	}
	var out strings.Builder
	for _, app := range []AppID{PetStore, RUBiS} {
		var arms []arm
		for _, cfg := range core.Configs {
			arms = append(arms, arm{cfg, QuickRunOptions()})
		}
		if app == PetStore {
			for _, cfg := range core.ExtensionConfigs {
				arms = append(arms, arm{cfg, QuickRunOptions()})
			}
			// The adaptive arm as RunAdapt builds it: canonical outage,
			// default resilience, the controller on the traced page mix.
			ad := adaptQuickOptions()
			ad.Schedule = faults.Canonical(ad.Warmup, ad.Duration)
			ad.Resilience = true
			ad.Trace = &trace.Options{SampleEvery: 4}
			arms = append(arms, arm{core.AsyncUpdates, ad})
		}
		runs := make(map[string]int)
		for _, a := range arms {
			_, tb, err := run(app, a.cfg, a.opts, simnet.HierarchySpec{}, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", app, a.cfg, err)
			}
			for _, sql := range tb.d.DB.PreparedTexts() {
				runs[strings.Join(strings.Fields(sql), " ")]++
			}
		}
		texts := make([]string, 0, len(runs))
		for sql := range runs {
			texts = append(texts, sql)
		}
		sort.Strings(texts)
		fmt.Fprintf(&out, "# %s: %d statements over %d runs\n", app, len(texts), len(arms))
		for _, sql := range texts {
			fmt.Fprintf(&out, "%d\t%s\n", runs[sql], sql)
		}
	}
	checkGolden(t, "statements", out.String())
}
