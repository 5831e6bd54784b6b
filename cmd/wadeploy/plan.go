package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"wadeploy/internal/experiment"
	"wadeploy/internal/planner"
)

// plan runs the deployment advisor for one application: an exhaustive search
// of the pattern space with the analytic cost model. With -sim it also
// prints the predicted vs. simulated error of each of the five paper
// configurations' runs. With -observed (a `wadeploy trace -json` export) the
// model is reweighted by the page mix the flight recorder
// actually measured before searching — the same code path the online
// re-placement controller runs every epoch. The search itself is closed-form
// and deterministic, so output is byte-identical across -parallel settings.
func plan(w io.Writer, f *flags, results []*experiment.Result) error {
	m := experiment.PlannerModel(f.app)
	var shares map[string]map[string]float64
	if f.observed != "" {
		var err error
		if shares, err = loadObservedShares(f.observed, f.app, f.cfg.String()); err != nil {
			return err
		}
	}
	res, err := planner.Search(m.WithObservedVisits(shares))
	if err != nil {
		return err
	}
	var sims map[string]time.Duration
	if f.sim {
		sims = make(map[string]time.Duration, len(results))
		for _, r := range results {
			sims[r.Spec.Policy.String()] = r.Overall(m.Classes)
		}
	}
	if f.json {
		return planner.WriteJSON(w, res, sims)
	}
	fmt.Fprint(w, planner.FormatResult(res, sims))
	return nil
}

// loadObservedShares reads a `wadeploy trace -json` export and extracts the
// observed visit shares of the run matching cfg (see parseObservedShares).
func loadObservedShares(path string, app experiment.AppID, cfg string) (map[string]map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-observed: %w", err)
	}
	shares, err := parseObservedShares(data, app, cfg)
	if err != nil {
		return nil, fmt.Errorf("-observed: %s: %w", path, err)
	}
	return shares, nil
}

// parseObservedShares extracts the observed visit shares (pattern → page →
// share) of the run matching cfg — the -config flag; a cfg no run carries is
// an error — from a `wadeploy trace -json` export. The export is
// outside input: a negative page count, or a pattern whose counts overflow
// when summed, is rejected rather than turned into shares outside [0, 1].
func parseObservedShares(data []byte, app experiment.AppID, cfg string) (map[string]map[string]float64, error) {
	var doc traceFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if doc.App != "" && doc.App != app {
		return nil, fmt.Errorf("traces %s, not %s", doc.App, app)
	}
	if len(doc.Runs) == 0 {
		return nil, fmt.Errorf("no runs")
	}
	for _, run := range doc.Runs {
		if run.Config != cfg || run.Profile == nil {
			continue
		}
		totals := make(map[string]int64)
		for _, pp := range run.Profile.Pages {
			if pp.Count < 0 {
				return nil, fmt.Errorf("run %s: page %s/%s has negative count %d", cfg, pp.Pattern, pp.Page, pp.Count)
			}
			if totals[pp.Pattern] > math.MaxInt64-pp.Count {
				return nil, fmt.Errorf("run %s: pattern %s page counts overflow", cfg, pp.Pattern)
			}
			totals[pp.Pattern] += pp.Count
		}
		shares := run.Profile.VisitShares()
		if len(shares) == 0 {
			return nil, fmt.Errorf("run %s has no page visits", cfg)
		}
		return shares, nil
	}
	var have []string
	for _, run := range doc.Runs {
		have = append(have, run.Config)
	}
	return nil, fmt.Errorf("no run for config %q (have %s)", cfg, strings.Join(have, ", "))
}
