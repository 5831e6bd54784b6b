package planner_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/planner"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

// randomModel builds a random but well-formed application model: a random
// component inventory with random placement rules and random declared edge
// methods, a random subset of entities replicated, and random pages whose op
// trees call random methods of random beans (or pin to main with Bean ""),
// read random replicas and write random entities.
func randomModel(rng *rand.Rand) *planner.Model {
	m := &planner.Model{
		Layout:    &planner.Layout{App: fmt.Sprintf("rand%04d", rng.Intn(10000))},
		Options:   core.DefaultOptions(),
		PageCosts: make(map[string]container.PageCost),
	}

	serve := func(*sim.Proc, *container.EdgeMethod, *container.Invocation) (any, error) { return nil, nil }
	key := func([]sqldb.Value) string { return "q:" }
	var facades, entities []string
	methods := make(map[string][]string) // declared edge methods by façade
	randBeans := func() []string {
		var out []string
		for _, e := range entities {
			if rng.Intn(2) == 0 {
				out = append(out, e)
			}
		}
		return out
	}
	nComp := 1 + rng.Intn(12)
	for i := 0; i < nComp; i++ {
		name := fmt.Sprintf("comp%02d", i)
		if rng.Intn(3) == 0 {
			entities = append(entities, name)
			m.Components = append(m.Components, planner.Entity(name, "t"+name, "id"))
			continue
		}
		kinds := []container.BeanKind{container.StatelessSession, container.StatefulSession, container.MessageDriven}
		rules := []planner.EdgeRule{
			planner.EdgeNever, planner.EdgeWithWeb, planner.EdgeWithEntityReplicas, planner.EdgeWithQueryCaches,
		}
		var edge []container.EdgeMethodSpec
		for j := rng.Intn(4); j > 0; j-- {
			method := fmt.Sprintf("m%d", j)
			methods[name] = append(methods[name], method)
			switch rng.Intn(5) {
			case 0:
				edge = append(edge, container.Delegate(method))
			case 1:
				edge = append(edge, container.FromCache(method, "q", key))
			case 2:
				edge = append(edge, container.FromReplicas(method, serve))
			default:
				spec := container.FromReplicas(method, serve, randBeans()...)
				if rng.Intn(2) == 0 {
					spec = spec.Reads("q", key)
				}
				edge = append(edge, spec)
			}
		}
		facades = append(facades, name)
		m.Components = append(m.Components,
			planner.Facade(name, kinds[rng.Intn(len(kinds))], rules[rng.Intn(len(rules))], edge...))
	}
	for _, e := range entities {
		if rng.Intn(2) == 0 {
			m.Replicated = append(m.Replicated, e)
		}
	}
	randEntity := func() string {
		if len(entities) == 0 {
			return ""
		}
		return entities[rng.Intn(len(entities))]
	}

	var randOp func(depth int) planner.Op
	randCall := func(depth int) planner.Call {
		c := planner.Call{Method: fmt.Sprintf("m%d", 1+rng.Intn(3)), Body: randOp(depth - 1)}
		if len(facades) > 0 && rng.Intn(3) > 0 {
			c.Bean = facades[rng.Intn(len(facades))]
			if declared := methods[c.Bean]; len(declared) > 0 {
				c.Method = declared[rng.Intn(len(declared))]
			}
		}
		return c
	}
	randOp = func(depth int) planner.Op {
		if depth <= 0 {
			return planner.Load{}
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
			return randCall(depth)
		case 2:
			return planner.SQL{Scan: rng.Intn(100), Write: rng.Intn(5), Out: rng.Intn(50)}
		case 3:
			return planner.Load{}
		case 4:
			return planner.Insert{Bean: randEntity()}
		case 5:
			return planner.Update{Bean: randEntity()}
		default:
			return planner.Read{Beans: randBeans(), Else: randCall(depth)}
		}
	}

	nPages := 1 + rng.Intn(6)
	visits := make(map[string]float64)
	for i := 0; i < nPages; i++ {
		name := fmt.Sprintf("page%02d", i)
		m.PageCosts[name] = container.PageCost{
			CPU:  time.Duration(rng.Intn(int(20 * time.Millisecond))),
			Lat:  time.Duration(rng.Intn(int(100 * time.Millisecond))),
			Page: &web.Response{Bytes: rng.Intn(16 * 1024)},
		}
		m.Pages = append(m.Pages, planner.Page{Name: name, Body: randOp(3)})
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
