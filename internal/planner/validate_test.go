package planner_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/planner"
)

// randomModel builds a random but well-formed application model: a random
// component inventory with random placement rules, a random subset of
// entities replicated, and random pages whose op trees reference random
// beans (or pin to main with Bean "").
func randomModel(rng *rand.Rand) *planner.Model {
	m := &planner.Model{
		Layout:    &planner.Layout{App: fmt.Sprintf("rand%04d", rng.Intn(10000))},
		Options:   core.DefaultOptions(),
		PushBytes: 64 << rng.Intn(8),
	}

	var facades, entities []string
	nComp := 1 + rng.Intn(12)
	for i := 0; i < nComp; i++ {
		name := fmt.Sprintf("comp%02d", i)
		if rng.Intn(3) == 0 {
			entities = append(entities, name)
			m.Components = append(m.Components, planner.Component{
				Desc: container.Descriptor{
					Name: name, Kind: container.Entity,
					Table: "t" + name, PKColumn: "id",
					LocalOnly: true,
				},
			})
			continue
		}
		kinds := []container.BeanKind{container.StatelessSession, container.StatefulSession, container.MessageDriven}
		rules := []planner.EdgeRule{
			planner.EdgeNever, planner.EdgeWithWeb, planner.EdgeWithEntityReplicas,
			planner.EdgeWithQueryCaches, planner.EdgeWithAnyCache,
		}
		facades = append(facades, name)
		m.Components = append(m.Components, planner.Component{
			Desc: container.Descriptor{Name: name, Kind: kinds[rng.Intn(len(kinds))], Facade: true},
			Rule: rules[rng.Intn(len(rules))],
		})
	}
	for _, e := range entities {
		if rng.Intn(2) == 0 {
			m.Replicated = append(m.Replicated, e)
		}
	}

	conds := []planner.Cond{
		planner.AtEdge, planner.HasEntityReplicas, planner.HasAnyCache,
		planner.EdgeHit, planner.EdgeCached,
	}
	var randOp func(depth int) planner.Op
	randOp = func(depth int) planner.Op {
		if depth <= 0 {
			return planner.Hit{}
		}
		switch rng.Intn(7) {
		case 0:
			n := 1 + rng.Intn(3)
			seq := make(planner.Seq, n)
			for i := range seq {
				seq[i] = randOp(depth - 1)
			}
			return seq
		case 1:
			bean := ""
			if len(facades) > 0 && rng.Intn(3) > 0 {
				bean = facades[rng.Intn(len(facades))]
			}
			return planner.Call{Bean: bean, Req: rng.Intn(4096), Reply: rng.Intn(8192), Body: randOp(depth - 1)}
		case 2:
			return planner.SQL{Scan: rng.Intn(100), Write: rng.Intn(5), Out: rng.Intn(50)}
		case 3:
			return planner.Load{}
		case 4:
			return planner.Insert{Push: conds[rng.Intn(len(conds))]}
		case 5:
			return planner.Update{Push: conds[rng.Intn(len(conds))]}
		default:
			return planner.If{Cond: conds[rng.Intn(len(conds))], Then: randOp(depth - 1), Else: randOp(depth - 1)}
		}
	}

	nPages := 1 + rng.Intn(6)
	visits := make(map[string]float64)
	for i := 0; i < nPages; i++ {
		name := fmt.Sprintf("page%02d", i)
		m.Pages = append(m.Pages, planner.Page{
			Name:      name,
			RenderCPU: time.Duration(rng.Intn(int(20 * time.Millisecond))),
			RenderLat: time.Duration(rng.Intn(int(100 * time.Millisecond))),
			Bytes:     rng.Intn(16 * 1024),
			Body:      randOp(3),
		})
		visits[name] = 1 + rng.Float64()*9
	}
	m.Patterns = []planner.Pattern{{Name: "P", Visits: visits}}
	m.Classes = []planner.Class{
		{Pattern: "P", Local: true, Clients: 1 + rng.Intn(100)},
		{Pattern: "P", Local: false, Clients: 1 + rng.Intn(100)},
	}
	return m
}

// TestRandomModelsProduceValidPlans is the property test: whatever the
// component graph and page weights, every plan the search emits must pass
// core.Plan.Validate, predictions must be positive, and the ranking must be
// ascending.
func TestRandomModelsProduceValidPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := randomModel(rng)
		res, err := planner.Search(m)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, m.App, err)
		}
		for i, r := range res.Ranked {
			if err := r.Plan.Validate(); err != nil {
				t.Fatalf("trial %d (%s) pattern set %s: invalid plan: %v", trial, m.App, r.Policy.Patterns(), err)
			}
			if r.Overall <= 0 {
				t.Fatalf("trial %d (%s) pattern set %s: non-positive prediction %v", trial, m.App, r.Policy.Patterns(), r.Overall)
			}
			if i > 0 && r.Overall < res.Ranked[i-1].Overall {
				t.Fatalf("trial %d (%s): ranking not ascending at %d", trial, m.App, i)
			}
		}
		// The greedy climb must end no worse than it started, and at a
		// pattern set the exhaustive ranking agrees is no worse.
		if len(res.Ladder) > 0 {
			last := res.Ladder[len(res.Ladder)-1].After
			if last >= res.Base {
				t.Fatalf("trial %d (%s): greedy climb ends at %v, no better than base %v",
					trial, m.App, last, res.Base)
			}
		}
	}
}
