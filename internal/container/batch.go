package container

// mergeUpdate folds a later commit onto an accumulated one for the same
// entity, last-writer-wins per field. The accumulator owns its State map
// (callers clone on first insert), so delta-onto-delta and delta-onto-full
// merges write in place without allocating; deletes, full-state pushes and
// writes after a delete replace the accumulator wholesale.
func mergeUpdate(acc *Update, u Update) {
	switch {
	case u.Deleted, !u.Delta, acc.Deleted:
		st := u.State
		if st != nil {
			st = st.Clone()
		}
		*acc = u
		acc.State = st
	default:
		for k, v := range u.State {
			acc.State[k] = v
		}
		acc.CommittedAt = u.CommittedAt
	}
}

// CoalesceUpdates collapses a commit-ordered batch so each entity appears
// once, carrying the last-writer-wins merge of everything that happened to
// it (N commits to the same bean collapse to one delta). Entities keep the
// order of their first appearance; input updates are never mutated. Both
// the windowed pusher and replog replay coalesce through the same buffer, so
// "coalesced push" and "coalesced log replay" are the same operation by
// construction.
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
	pk   string
}

// coalescer is the coalescing buffer: one pending update per entity, in
// first-appearance order. The zero value is empty and ready.
type coalescer struct {
	pending []Update
	index   map[updateKey]int
}

// add folds u into the buffer and reports whether it merged into an update
// already pending for the same entity.
func (c *coalescer) add(u Update) bool {
	k := updateKey{u.Bean, pkKey(u.PK)}
	if i, ok := c.index[k]; ok {
		mergeUpdate(&c.pending[i], u)
		return true
	}
	if c.index == nil {
		c.index = make(map[updateKey]int)
	}
	c.index[k] = len(c.pending)
	if u.State != nil {
		u.State = u.State.Clone()
	}
	c.pending = append(c.pending, u)
	return false
}

// take empties the buffer and returns what was pending.
func (c *coalescer) take() []Update {
	out := c.pending
	c.pending = nil
	clear(c.index)
	return out
}
