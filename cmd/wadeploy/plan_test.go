package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"wadeploy/internal/experiment"
	"wadeploy/internal/planner"
	"wadeploy/internal/trace"
)

// TestObservedRejectsMalformedProfile loads the checked-in `trace -json`
// export through `plan -observed`, then the same export with one page count
// made negative and with a pattern whose counts overflow when summed: both
// would turn into shares outside [0, 1] and rank placements at negative
// session times, so both are refused.
func TestObservedRejectsMalformedProfile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "trace-rubis-json.golden"))
	if err != nil {
		t.Fatal(err)
	}
	const cfg = "async-updates"
	load := func(mutate func(*traceFile)) error {
		var doc traceFile
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		mutate(&doc)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = loadObservedShares(path, experiment.RUBiS, cfg)
		return err
	}
	pages := func(doc *traceFile) []trace.PageProfile {
		for _, run := range doc.Runs {
			if run.Config == cfg {
				return run.Profile.Pages
			}
		}
		t.Fatalf("no %s run in the export", cfg)
		return nil
	}
	if err := load(func(*traceFile) {}); err != nil {
		t.Fatalf("export as written rejected: %v", err)
	}
	if err := load(func(doc *traceFile) { pages(doc)[0].Count = -400 }); err == nil {
		t.Error("page count -400 accepted")
	}
	if err := load(func(doc *traceFile) {
		p := pages(doc)
		if p[0].Pattern != p[1].Pattern {
			t.Fatalf("first two pages are of patterns %s and %s, want one", p[0].Pattern, p[1].Pattern)
		}
		p[0].Count, p[1].Count = math.MaxInt64, math.MaxInt64
	}); err == nil {
		t.Error("page counts overflowing their pattern's total accepted")
	}
}

// FuzzObservedShares holds `plan -observed` to its contract on arbitrary
// exports: whatever parseObservedShares accepts is a proper page mix —
// every share finite and in [0, 1], each pattern's shares summing to 1 —
// and the placements it ranks all cost a non-negative session time.
func FuzzObservedShares(f *testing.F) {
	models := map[experiment.AppID]*planner.Model{
		experiment.PetStore: experiment.PlannerModel(experiment.PetStore),
		experiment.RUBiS:    experiment.PlannerModel(experiment.RUBiS),
	}
	f.Fuzz(func(t *testing.T, data []byte, cfg string) {
		for app, m := range models {
			shares, err := parseObservedShares(data, app, cfg)
			if err != nil {
				continue
			}
			for pattern, pages := range shares {
				sum := 0.0
				for page, s := range pages {
					if math.IsNaN(s) || s < 0 || s > 1 {
						t.Fatalf("%s: share %s/%s = %v", app, pattern, page, s)
					}
					sum += s
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("%s: pattern %s shares sum to %v", app, pattern, sum)
				}
			}
			res, err := planner.Search(m.WithObservedVisits(shares))
			if err != nil {
				t.Fatalf("%s: search on accepted shares: %v", app, err)
			}
			for _, r := range res.Ranked {
				if r.Overall < 0 {
					t.Fatalf("%s: %s ranked at %v", app, r.Policy.Patterns(), r.Overall)
				}
			}
		}
	})
}
