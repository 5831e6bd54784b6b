package container

import "wadeploy/internal/sqldb"

// mergeUpdate folds a later commit onto an accumulated one for the same
// entity, last-writer-wins per field, and reports whether acc's row is now
// the accumulator's own copy. A full-state push replaces the accumulator
// wholesale, sharing u's row. A delta folds into acc's row: in place when
// owned says the accumulator already holds a copy nobody else has seen, else
// into the one copy With makes.
func mergeUpdate(acc *Update, u Update, owned bool) bool {
	if !u.Delta {
		*acc = u
		return false
	}
	var own []sqldb.Value
	if owned {
		own = acc.State.vals
	}
	acc.State, acc.CommittedAt = acc.State.over(own, u.State), u.CommittedAt
	return true
}

// CoalesceUpdates collapses a commit-ordered batch so each entity appears
// once, carrying the last-writer-wins merge of everything that happened to
// it (N commits to the same bean collapse to one delta). Entities keep the
// order of their first appearance; input updates are never mutated. The
// windowed pusher coalesces each window through the same buffer.
func CoalesceUpdates(updates []Update) []Update {
	if len(updates) <= 1 {
		return updates
	}
	c := coalescer{pending: make([]Update, 0, len(updates)), index: make(map[updateKey]int, len(updates))}
	for _, u := range updates {
		c.add(u)
	}
	return c.pending
}

type updateKey struct {
	bean string
	pk   sqldb.Value
}

// coalescer is the coalescing buffer: one pending update per entity, in
// first-appearance order, and whether its row is the buffer's own copy. The
// zero value is empty and ready.
type coalescer struct {
	pending []Update
	spare   []Update // the batch handed off before the last: the next window's buffer
	owned   []bool
	index   map[updateKey]int
}

// add folds u into the buffer and reports whether it merged into an update
// already pending for the same entity.
func (c *coalescer) add(u Update) bool {
	k := updateKey{u.Bean, u.PK}
	if i, ok := c.index[k]; ok {
		c.owned[i] = mergeUpdate(&c.pending[i], u, c.owned[i])
		return true
	}
	if c.index == nil {
		c.index = make(map[updateKey]int)
	}
	c.index[k] = len(c.pending)
	c.pending = append(c.pending, u)
	c.owned = append(c.owned, false)
	return false
}

// take empties the buffer and hands off what was pending, full-capped. The
// buffer alternates between two slices, so a handed-off batch is written
// again only by the window after next.
func (c *coalescer) take() []Update {
	out := c.pending[:len(c.pending):len(c.pending)]
	c.pending, c.spare = c.spare[:0], c.pending
	c.owned = c.owned[:0]
	clear(c.index)
	return out
}
