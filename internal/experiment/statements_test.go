package experiment

import (
	"fmt"
	"sort"
	"strings"
	"testing"
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
	var out strings.Builder
	for _, app := range []AppID{PetStore, RUBiS} {
		arms := Table(Spec{App: app, RunOptions: QuickRunOptions()}, true)
		if app == PetStore {
			// The adaptive arm: canonical outage, default resilience, the
			// controller on the traced page mix.
			arms = append(arms, AdaptArms(adaptQuickSpec())[2])
		}
		runs := make(map[string]int)
		for _, a := range arms {
			tb, err := Deploy(a)
			if err == nil {
				_, err = tb.drive()
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", app, a.Policy, err)
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
