package planner

import (
	"fmt"
	"sort"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
)

// ClassMean is one client class's session mean, predicted or simulated.
type ClassMean struct {
	Class
	Mean time.Duration
}

// Overall is the search objective: the mean response time across client
// classes, weighted by client count. Soft think-time pacing gives every
// client the same request rate, so a class contributes in proportion to its
// population.
func Overall(per []ClassMean) time.Duration {
	var sum float64
	clients := 0
	for _, cm := range per {
		sum += float64(cm.Clients) * float64(cm.Mean)
		clients += cm.Clients
	}
	if clients == 0 {
		return 0
	}
	return time.Duration(sum / float64(clients))
}

// Ranked is one evaluated pattern set: its predicted cost and the
// synthesized placement plan.
type Ranked struct {
	Policy   core.Policy
	Overall  time.Duration
	PerClass []ClassMean
	Plan     *core.Plan
}

// ConfigName renders the paper configuration the pattern set is, or "—".
func (r Ranked) ConfigName() string {
	if name, ok := r.Policy.Name(); ok {
		return name
	}
	return "—"
}

// Step is one rung of the greedy pattern ladder: the feature added and the
// predicted overall mean after adding it.
type Step struct {
	Feature Feature
	After   time.Duration
}

// Result is a full planner run: every valid pattern set ranked by predicted
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

// Best returns the top-ranked pattern set.
func (r *Result) Best() Ranked { return r.Ranked[0] }

// Greedy returns the pattern set the greedy climb ends at.
func (r *Result) Greedy() core.Policy {
	var p core.Policy
	for _, s := range r.Ladder {
		p = s.Feature.With(p)
	}
	return p
}

// Search evaluates every valid pattern set exhaustively (the pattern space is
// six points — exhaustive is exact and cheap), pricing each class's session
// once per set, and climbs the greedy ladder over those prices for
// comparison and for the report's narrative. A page that calls, from an
// edge, a method its edge façade does not declare is an error.
func Search(m *Model) (*Result, error) {
	if len(m.Pages) == 0 || len(m.Classes) == 0 {
		return nil, fmt.Errorf("planner: model %s has no pages or classes", m.App)
	}
	ev := NewEvaluator(m)
	res := &Result{App: m.App}
	overall := make(map[core.Policy]time.Duration)
	for _, c := range core.PatternSets() {
		r := Ranked{Policy: c, Plan: m.PlanFor(c)}
		for _, cl := range m.Classes {
			r.PerClass = append(r.PerClass, ClassMean{Class: cl, Mean: ev.SessionMean(c, cl.Pattern, cl.Local)})
		}
		r.Overall = Overall(r.PerClass)
		overall[c] = r.Overall
		if ev.err != nil {
			return nil, ev.err
		}
		if err := r.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("planner: synthesized plan for %s: %w", c.Patterns(), err)
		}
		res.Ranked = append(res.Ranked, r)
	}
	// PatternSets() is already in ladder order; a stable sort on the
	// objective keeps ties deterministic.
	sort.SliceStable(res.Ranked, func(i, j int) bool {
		return res.Ranked[i].Overall < res.Ranked[j].Overall
	})

	res.Base = overall[core.Centralized]
	cur, best := core.Centralized, res.Base
	for {
		var (
			pick     Feature
			pickCost time.Duration
			found    bool
		)
		for _, f := range Features {
			if f.In(cur) {
				continue
			}
			cost, valid := overall[f.With(cur)]
			if !valid {
				continue
			}
			if cost < best && (!found || cost < pickCost) {
				pick, pickCost, found = f, cost, true
			}
		}
		if !found {
			break
		}
		cur, best = pick.With(cur), pickCost
		res.Ladder = append(res.Ladder, Step{Feature: pick, After: pickCost})
	}
	return res, nil
}

// PlanFor synthesizes the placement plan for p on the model's topology.
func (m *Model) PlanFor(p core.Policy) *core.Plan {
	servers := m.Options.Topology.ServerNodes()
	return m.Layout.Plan(p, servers[0], servers[1:])
}

// Plan places the layout's components under p on a main server and its
// edges: each component by its edge rule, plus the wiring AutoWire
// materializes (read-only replicas, the edge updater façade, the async update
// subscriber). The result always passes core.Plan.Validate.
func (l *Layout) Plan(p core.Policy, main string, edges []string) *core.Plan {
	mainOnly := []string{main}
	active := mainOnly
	if p.ReplicateWeb {
		active = append([]string{main}, edges...)
	}

	pl := &core.Plan{App: l.App}
	add := func(d container.Descriptor, servers []string) {
		pl.Placements = append(pl.Placements, core.Placement{Desc: d, Servers: servers})
	}
	for _, comp := range l.Components {
		servers := mainOnly
		if comp.Rule.active(p) {
			servers = active
		}
		add(comp.Desc, servers)
	}
	if p.EntityReplicas {
		for _, ro := range l.Replicated {
			add(container.Descriptor{
				Name: ro + "RO", Kind: container.Entity, LocalOnly: true,
			}, edges)
		}
		add(container.Descriptor{
			Name: core.UpdaterBean, Kind: container.StatelessSession, Facade: true,
		}, edges)
		if p.AsyncUpdates {
			add(container.Descriptor{
				Name: core.SubscriberBean, Kind: container.MessageDriven, Facade: true,
			}, edges)
		}
	}
	return pl
}
