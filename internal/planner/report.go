package planner

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// ms renders a duration as fixed-point milliseconds, the unit of the
// paper's tables.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// FormatResult renders the ranked pattern sets as a text table. sims, when
// non-nil, maps paper configuration names (core.Policy.Name) to simulated
// overall means; pattern sets with a simulated value gain a simulated column
// and a prediction-error column.
func FormatResult(res *Result, sims map[string]time.Duration) string {
	if res == nil || len(res.Ranked) == 0 {
		return "(no result)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Deployment advisor: %s (predicted overall mean response time)\n\n", res.App)
	header := fmt.Sprintf("%4s  %-26s %-16s %10s", "rank", "patterns", "config", "predicted")
	if sims != nil {
		header += fmt.Sprintf(" %10s %7s", "simulated", "err")
	}
	fmt.Fprintln(&b, header)
	for i, r := range res.Ranked {
		line := fmt.Sprintf("%4d  %-26s %-16s %10s", i+1, r.Policy.Patterns(), r.ConfigName(), ms(r.Overall))
		if sims != nil {
			if sim := r.simulated(sims); sim != 0 {
				err := (float64(r.Overall) - float64(sim)) / float64(sim) * 100
				line += fmt.Sprintf(" %10s %+6.1f%%", ms(sim), err)
			} else {
				line += fmt.Sprintf(" %10s %7s", "—", "—")
			}
		}
		fmt.Fprintln(&b, line)
	}

	fmt.Fprintf(&b, "\nGreedy pattern ladder: centralized %s", ms(res.Base))
	for _, s := range res.Ladder {
		fmt.Fprintf(&b, " -> +%s %s", s.Feature, ms(s.After))
	}
	fmt.Fprintln(&b)

	best := res.Best()
	fmt.Fprintf(&b, "\nPer-class means for the recommended plan (%s / %s):\n",
		best.Policy.Patterns(), best.ConfigName())
	for _, cm := range best.PerClass {
		loc := "remote"
		if cm.Local {
			loc = "local"
		}
		fmt.Fprintf(&b, "  %-8s %-6s %3d clients  %10s\n", cm.Pattern, loc, cm.Clients, ms(cm.Mean))
	}

	fmt.Fprintf(&b, "\nRecommended placement:\n")
	for _, p := range best.Plan.Placements {
		role := "local-only"
		if p.Desc.Facade {
			role = "façade"
		}
		fmt.Fprintf(&b, "  %-18s %-18s %-10s %s\n",
			p.Desc.Name, p.Desc.Kind, role, strings.Join(p.Servers, ","))
	}
	return b.String()
}

// JSON document types for `wadeploy plan -json`.
type jsonDoc struct {
	App        string          `json:"app"`
	BaseMs     float64         `json:"centralized_ms"`
	Candidates []jsonCandidate `json:"candidates"`
	Ladder     []jsonStep      `json:"greedy_ladder"`
}

type jsonCandidate struct {
	Rank        int             `json:"rank"`
	Patterns    string          `json:"patterns"`
	Config      string          `json:"config,omitempty"`
	PredictedMs float64         `json:"predicted_ms"`
	SimulatedMs float64         `json:"simulated_ms,omitempty"`
	ErrorPct    float64         `json:"error_pct,omitempty"`
	PerClass    []jsonClassMean `json:"per_class"`
	Plan        []jsonPlacement `json:"plan"`
}

type jsonClassMean struct {
	Pattern string  `json:"pattern"`
	Local   bool    `json:"local"`
	Clients int     `json:"clients"`
	MeanMs  float64 `json:"mean_ms"`
}

type jsonPlacement struct {
	Bean    string   `json:"bean"`
	Kind    string   `json:"kind"`
	Facade  bool     `json:"facade"`
	Servers []string `json:"servers"`
}

type jsonStep struct {
	Feature string  `json:"feature"`
	AfterMs float64 `json:"after_ms"`
}

func toMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// simulated looks the pattern set's simulated overall mean up by its paper
// configuration name; 0 when it has none.
func (r Ranked) simulated(sims map[string]time.Duration) time.Duration {
	if name, ok := r.Policy.Name(); ok {
		return sims[name]
	}
	return 0
}

// WriteJSON emits the machine-readable form of FormatResult: ranked
// candidates with predicted (and optionally simulated) cost, per-class
// means, the synthesized plan, and the greedy ladder.
func WriteJSON(w io.Writer, res *Result, sims map[string]time.Duration) error {
	doc := jsonDoc{App: res.App, BaseMs: toMs(res.Base)}
	for i, r := range res.Ranked {
		jc := jsonCandidate{
			Rank:        i + 1,
			Patterns:    r.Policy.Patterns(),
			PredictedMs: toMs(r.Overall),
		}
		if name, ok := r.Policy.Name(); ok {
			jc.Config = name
		}
		if sim := r.simulated(sims); sim != 0 {
			jc.SimulatedMs = toMs(sim)
			jc.ErrorPct = (float64(r.Overall) - float64(sim)) / float64(sim) * 100
		}
		for _, cm := range r.PerClass {
			jc.PerClass = append(jc.PerClass, jsonClassMean{
				Pattern: cm.Pattern, Local: cm.Local, Clients: cm.Clients, MeanMs: toMs(cm.Mean),
			})
		}
		for _, p := range r.Plan.Placements {
			jc.Plan = append(jc.Plan, jsonPlacement{
				Bean: p.Desc.Name, Kind: p.Desc.Kind.String(), Facade: p.Desc.Facade,
				Servers: p.Servers,
			})
		}
		doc.Candidates = append(doc.Candidates, jc)
	}
	for _, s := range res.Ladder {
		doc.Ladder = append(doc.Ladder, jsonStep{Feature: s.Feature.String(), AfterMs: toMs(s.After)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
