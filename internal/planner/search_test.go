package planner_test

import (
	"testing"

	"wadeploy/internal/core"
	"wadeploy/internal/petstore"
	"wadeploy/internal/planner"
	"wadeploy/internal/rubis"
)

// TestSearchPricesEachSessionPageOnce: Search prices every page a class
// visits once per pattern set and class — the ranking, Base and the greedy
// ladder all read those prices — and a set's Overall is the objective over
// its per-class means. On the apps' models that is 168 pricings for Pet
// Store and 204 for RUBiS.
func TestSearchPricesEachSessionPageOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     *planner.Model
		total int
	}{
		{"demo", testModel(), 36},
		{"petstore", petstore.PlannerModel(), 168},
		{"rubis", rubis.PlannerModel(), 204},
	} {
		m, priced := planner.CountPricing(tc.m)
		res, err := planner.Search(m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		visits := make(map[string]map[string]float64)
		for _, pat := range m.Patterns {
			visits[pat.Name] = pat.Visits
		}
		want := make(map[string]int)
		for _, c := range core.PatternSets() {
			for _, cl := range m.Classes {
				for page, v := range visits[cl.Pattern] {
					if v > 0 {
						want[c.Patterns()+"/"+page]++
					}
				}
			}
		}
		total := 0
		for key, n := range priced {
			total += n
			if n != want[key] {
				t.Errorf("%s: %s priced %d times, want %d", tc.name, key, n, want[key])
			}
		}
		if total != tc.total || len(priced) != len(want) {
			t.Errorf("%s: %d pricings of %d (set, page) pairs, want %d of %d", tc.name, total, len(priced), tc.total, len(want))
		}
		for _, r := range res.Ranked {
			if got := planner.Overall(r.PerClass); r.Overall != got {
				t.Errorf("%s: %s Overall %v, the objective over its classes %v", tc.name, r.Policy.Patterns(), r.Overall, got)
			}
		}
	}
}
