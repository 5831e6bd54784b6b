package planner

import (
	"fmt"
	"sort"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
)

// ClassMean is one client class's predicted session mean.
type ClassMean struct {
	Pattern string
	Local   bool
	Clients int
	Mean    time.Duration
}

// Ranked is one evaluated candidate: its predicted cost, the paper
// configuration it corresponds to (if any), and the synthesized placement
// plan.
type Ranked struct {
	Candidate Candidate
	Config    core.ConfigID // valid only when HasConfig
	HasConfig bool
	Overall   time.Duration
	PerClass  []ClassMean
	Plan      *core.Plan
}

// ConfigName renders the matching paper configuration, or "—".
func (r Ranked) ConfigName() string {
	if r.HasConfig {
		return r.Config.String()
	}
	return "—"
}

// Step is one rung of the greedy pattern ladder: the feature added and the
// predicted overall mean after adding it.
type Step struct {
	Feature Feature
	After   time.Duration
}

// Result is a full planner run: every valid candidate ranked by predicted
// overall mean (ascending, deterministic tie-break on the ladder order) plus
// the greedy climb that a pattern-by-pattern search takes.
type Result struct {
	App    string
	Ranked []Ranked

	// Base is the predicted overall mean of the centralized placement, the
	// greedy climb's starting point.
	Base time.Duration

	// Ladder is the greedy climb: from the centralized placement, add
	// whichever single pattern improves the objective most, until no
	// addition helps. With the paper's workload it adopts all four patterns
	// (the caching pair may come in either order, depending on which page
	// weights dominate).
	Ladder []Step
}

// Best returns the top-ranked candidate.
func (r *Result) Best() Ranked { return r.Ranked[0] }

// GreedyCandidate returns the candidate the greedy climb ends at.
func (r *Result) GreedyCandidate() Candidate {
	c := Candidate{}
	for _, s := range r.Ladder {
		c = c.With(s.Feature)
	}
	return c
}

// Search evaluates every valid candidate exhaustively (the pattern space is
// eight points — exhaustive is exact and cheap) and runs the greedy ladder
// climb for comparison and for the report's narrative.
func Search(m *Model) (*Result, error) {
	if len(m.Pages) == 0 || len(m.Classes) == 0 {
		return nil, fmt.Errorf("planner: model %s has no pages or classes", m.App)
	}
	ev := NewEvaluator(m)
	res := &Result{App: m.App}
	for _, c := range Candidates() {
		r := Ranked{Candidate: c, Overall: ev.Overall(c), Plan: m.PlanFor(c)}
		r.Config, r.HasConfig = c.Config()
		for _, cl := range m.Classes {
			r.PerClass = append(r.PerClass, ClassMean{
				Pattern: cl.Pattern,
				Local:   cl.Local,
				Clients: cl.Clients,
				Mean:    ev.SessionMean(c, cl.Pattern, cl.Local),
			})
		}
		if err := r.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("planner: synthesized plan for %s: %w", c, err)
		}
		res.Ranked = append(res.Ranked, r)
	}
	// Candidates() is already in ladder order; a stable sort on the
	// objective keeps ties deterministic.
	sort.SliceStable(res.Ranked, func(i, j int) bool {
		return res.Ranked[i].Overall < res.Ranked[j].Overall
	})

	res.Base = ev.Overall(Candidate{})
	cur, best := Candidate{}, res.Base
	for {
		var (
			pick     Feature
			pickCost time.Duration
			found    bool
		)
		for _, f := range Features {
			if cur.Has(f) {
				continue
			}
			next := cur.With(f)
			if !next.Valid() {
				continue
			}
			cost := ev.Overall(next)
			if cost < best && (!found || cost < pickCost) {
				pick, pickCost, found = f, cost, true
			}
		}
		if !found {
			break
		}
		cur, best = cur.With(pick), pickCost
		res.Ladder = append(res.Ladder, Step{Feature: pick, After: pickCost})
	}
	return res, nil
}

// PlanFor synthesizes the placement plan for a candidate: the application's
// components placed by their edge rules, plus the wiring-derived components
// (read-only replicas, the edge Updater façade, the async update
// subscriber). The result always passes core.Plan.Validate.
func (m *Model) PlanFor(c Candidate) *core.Plan {
	servers := m.Options.Topology.ServerNodes()
	main, edges := servers[:1:1], servers[1:]
	active := main
	if c.ReplicateWeb {
		active = servers
	}

	pl := &core.Plan{App: m.App}
	add := func(d container.Descriptor, servers []string) {
		pl.Placements = append(pl.Placements, core.Placement{Desc: d, Servers: servers})
	}
	for _, comp := range m.Components {
		servers := main
		if comp.Rule.active(c) {
			servers = active
		}
		add(comp.Desc, servers)
	}
	if c.EntityReplicas {
		for _, ro := range m.Replicated {
			add(container.Descriptor{
				Name: ro + "RO", Kind: container.Entity, LocalOnly: true,
			}, edges)
		}
	}
	if c.EntityReplicas || c.QueryCaches {
		add(container.Descriptor{
			Name: "Updater", Kind: container.StatelessSession, Facade: true,
		}, edges)
		if c.AsyncUpdates {
			add(container.Descriptor{
				Name: "UpdateSubscriber", Kind: container.MessageDriven, Facade: true,
			}, edges)
		}
	}
	return pl
}
