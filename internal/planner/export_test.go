package planner

import (
	"slices"
	"time"
)

// CountPricing returns a copy of m whose page bodies count how often the
// evaluator prices them, in priced, by pattern set and page name
// ("web+entities/View").
func CountPricing(m *Model) (*Model, map[string]int) {
	priced := make(map[string]int)
	cp := *m
	cp.Pages = slices.Clone(m.Pages)
	for i := range cp.Pages {
		cp.Pages[i].Body = counted{page: cp.Pages[i].Name, body: cp.Pages[i].Body, priced: priced}
	}
	return &cp, priced
}

type counted struct {
	page   string
	body   Op
	priced map[string]int
}

func (c counted) cost(ev *Evaluator, at site) time.Duration {
	c.priced[at.c.Patterns()+"/"+c.page]++
	return costAt(c.body, ev, at)
}
