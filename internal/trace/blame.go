package trace

import (
	"sort"
	"time"
)

// The critical-path analyzer. Synchronous spans on one page form a properly
// nested tree on the requesting process (rmi handlers run on the caller's
// process), so the root interval partitions exactly into per-span self-times:
// a span's self-time is its duration minus the union of its synchronous
// children's intervals. Each self-time is attributed to the span's cause —
// the machine-checkable version of the paper's Section 5 explanations
// ("centralized browse pages are WAN-bound; facades turn that into service
// time"). Async spans (JMS deliveries, dbrepl replays) execute off the
// requesting process; their time is totalled separately and never inflates
// page latency blame.

// PathBlame decomposes one page's end-to-end latency.
type PathBlame struct {
	Total   time.Duration
	ByCause [numCauses]time.Duration
	// Links maps "peer->node" to the critical-path time spent on that
	// network edge (self-time of spans that name a peer).
	Links map[string]time.Duration
	// Async is span time recorded off the critical path (background fan-out,
	// message deliveries), reported for completeness.
	Async time.Duration
}

// Analyze walks t's span tree and returns its critical-path decomposition.
func Analyze(t *Trace) PathBlame {
	b := PathBlame{}
	if len(t.Spans) == 0 {
		return b
	}
	b.Total = t.Spans[0].Dur()

	// Children lists by parent, sync spans only; async spans and their
	// subtrees are off the critical path.
	children := make([][]SpanID, len(t.Spans))
	onPath := make([]bool, len(t.Spans))
	onPath[0] = true
	for i := 1; i < len(t.Spans); i++ {
		s := &t.Spans[i]
		if s.Async {
			b.Async += s.Dur()
			continue
		}
		if s.Parent >= 0 && int(s.Parent) < len(t.Spans) {
			children[s.Parent] = append(children[s.Parent], SpanID(i))
		}
	}
	// Roots-down reachability: a sync span is on the path iff its parent is.
	// Spans are appended in open order, so parents precede children except
	// across async hops (which are excluded anyway).
	for i := 1; i < len(t.Spans); i++ {
		s := &t.Spans[i]
		if !s.Async && s.Parent >= 0 && onPath[s.Parent] {
			onPath[i] = true
		}
	}
	for i := range t.Spans {
		if !onPath[i] {
			continue
		}
		s := &t.Spans[i]
		self := s.Dur() - childUnion(t, children[i], s.Start, s.End)
		if self < 0 {
			self = 0
		}
		b.ByCause[s.Cause] += self
		if s.Peer != "" && self > 0 {
			if b.Links == nil {
				b.Links = make(map[string]time.Duration)
			}
			b.Links[s.Peer+"->"+s.Node] += self
		}
	}
	return b
}

// childUnion returns the total length of the union of the children's
// intervals clipped to [lo, hi]. Parallel fan-out children may overlap, so a
// plain sum would over-subtract.
func childUnion(t *Trace, kids []SpanID, lo, hi time.Duration) time.Duration {
	switch len(kids) {
	case 0:
		return 0
	case 1:
		s := t.Spans[kids[0]]
		return clip(s.Start, s.End, lo, hi)
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, id := range kids {
		s := t.Spans[id]
		a, b := s.Start, s.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	end = -1
	var start time.Duration
	first := true
	for _, in := range iv {
		if first || in[0] > end {
			if !first {
				total += end - start
			}
			start, end = in[0], in[1]
			first = false
		} else if in[1] > end {
			end = in[1]
		}
	}
	if !first {
		total += end - start
	}
	return total
}

func clip(a, b, lo, hi time.Duration) time.Duration {
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b <= a {
		return 0
	}
	return b - a
}

// AggKey identifies one aggregated page series, mirroring workload.SeriesKey.
type AggKey struct {
	Pattern string
	Page    string
	Local   bool
}

// PageAgg accumulates blame over every sampled trace of one page series.
type PageAgg struct {
	Count   int64
	Total   time.Duration
	ByCause [numCauses]time.Duration
	Links   map[string]time.Duration
	Async   time.Duration
	Dropped int64
}

// Aggregator folds per-trace blame into fixed-size per-page aggregates, so
// aggregation memory is bounded by the page mix, not the trace volume.
type Aggregator struct {
	pages map[AggKey]*PageAgg
}

// NewAggregator creates an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{pages: make(map[AggKey]*PageAgg)}
}

// Add folds one analyzed trace into the aggregate.
func (a *Aggregator) Add(t *Trace, b PathBlame) {
	key := AggKey{Pattern: t.Pattern, Page: t.Page, Local: t.Local}
	pa := a.pages[key]
	if pa == nil {
		pa = &PageAgg{}
		a.pages[key] = pa
	}
	pa.Count++
	pa.Total += b.Total
	for c := 0; c < numCauses; c++ {
		pa.ByCause[c] += b.ByCause[c]
	}
	pa.Async += b.Async
	pa.Dropped += int64(t.Dropped)
	for link, d := range b.Links {
		if pa.Links == nil {
			pa.Links = make(map[string]time.Duration)
		}
		pa.Links[link] += d
	}
}

// Merge folds another aggregator (a different lane's, say) into a.
func (a *Aggregator) Merge(other *Aggregator) {
	for key, pb := range other.pages {
		pa := a.pages[key]
		if pa == nil {
			pa = &PageAgg{}
			a.pages[key] = pa
		}
		pa.Count += pb.Count
		pa.Total += pb.Total
		for c := 0; c < numCauses; c++ {
			pa.ByCause[c] += pb.ByCause[c]
		}
		pa.Async += pb.Async
		pa.Dropped += pb.Dropped
		for link, d := range pb.Links {
			if pa.Links == nil {
				pa.Links = make(map[string]time.Duration)
			}
			pa.Links[link] += d
		}
	}
}

// Pages returns the aggregated series sorted by (pattern, page, locality) —
// the deterministic iteration order every report uses.
func (a *Aggregator) Pages() []AggEntry {
	out := make([]AggEntry, 0, len(a.pages))
	for key, pa := range a.pages {
		out = append(out, AggEntry{Key: key, Agg: pa})
	}
	sort.Slice(out, func(i, j int) bool {
		ki, kj := out[i].Key, out[j].Key
		if ki.Pattern != kj.Pattern {
			return ki.Pattern < kj.Pattern
		}
		if ki.Page != kj.Page {
			return ki.Page < kj.Page
		}
		return !ki.Local && kj.Local
	})
	return out
}

// AggEntry pairs a series key with its aggregate.
type AggEntry struct {
	Key AggKey
	Agg *PageAgg
}

// LinkBlame is one network edge's share of a page's critical path.
type LinkBlame struct {
	Link   string `json:"link"`
	MeanNs int64  `json:"mean_ns"`
}

// PageProfile is the exported aggregate for one page series.
type PageProfile struct {
	Pattern string           `json:"pattern"`
	Page    string           `json:"page"`
	Local   bool             `json:"local"`
	Count   int64            `json:"count"`
	Share   float64          `json:"share"` // fraction of sampled views within its (pattern, locality) class
	MeanNs  int64            `json:"mean_ns"`
	CauseNs map[string]int64 `json:"cause_ns"` // mean ns of the page's critical path per cause
	Links   []LinkBlame      `json:"links,omitempty"`
}

// Profile is the JSON shape `wadeploy trace -json` exports: the observed
// page mix plus per-page cause and link blame. Share doubles as a relative
// visit weight, which is exactly what planner patterns consume (see
// planner.Model.WithObservedVisits).
type Profile struct {
	Pages []PageProfile `json:"pages"`
}

// Profile renders the aggregate in the deterministic export shape.
func (a *Aggregator) Profile() *Profile {
	entries := a.Pages()
	// Group totals for Share: sampled views per (pattern, locality).
	groupCount := make(map[[2]string]int64)
	for _, e := range entries {
		groupCount[groupKey(e.Key)] += e.Agg.Count
	}
	p := &Profile{Pages: make([]PageProfile, 0, len(entries))}
	for _, e := range entries {
		pa := e.Agg
		pp := PageProfile{
			Pattern: e.Key.Pattern,
			Page:    e.Key.Page,
			Local:   e.Key.Local,
			Count:   pa.Count,
		}
		if g := groupCount[groupKey(e.Key)]; g > 0 {
			pp.Share = float64(pa.Count) / float64(g)
		}
		if pa.Count > 0 {
			pp.MeanNs = int64(pa.Total) / pa.Count
			pp.CauseNs = make(map[string]int64, numCauses)
			for c := 0; c < numCauses; c++ {
				pp.CauseNs[Cause(c).String()] = int64(pa.ByCause[c]) / pa.Count
			}
			links := make([]LinkBlame, 0, len(pa.Links))
			for link, d := range pa.Links {
				links = append(links, LinkBlame{Link: link, MeanNs: int64(d) / pa.Count})
			}
			sort.Slice(links, func(i, j int) bool {
				if links[i].MeanNs != links[j].MeanNs {
					return links[i].MeanNs > links[j].MeanNs
				}
				return links[i].Link < links[j].Link
			})
			pp.Links = links
		}
		p.Pages = append(p.Pages, pp)
	}
	return p
}

func groupKey(k AggKey) [2]string {
	loc := "remote"
	if k.Local {
		loc = "local"
	}
	return [2]string{k.Pattern, loc}
}

// VisitShares folds both localities together and returns pattern → page →
// observed visit share, the shape planner patterns consume as relative
// visit weights.
func (p *Profile) VisitShares() map[string]map[string]float64 {
	counts := make(map[string]map[string]int64)
	totals := make(map[string]int64)
	for _, pp := range p.Pages {
		m := counts[pp.Pattern]
		if m == nil {
			m = make(map[string]int64)
			counts[pp.Pattern] = m
		}
		m[pp.Page] += pp.Count
		totals[pp.Pattern] += pp.Count
	}
	out := make(map[string]map[string]float64, len(counts))
	for pattern, m := range counts {
		total := totals[pattern]
		if total == 0 {
			continue
		}
		shares := make(map[string]float64, len(m))
		for page, n := range m {
			shares[page] = float64(n) / float64(total)
		}
		out[pattern] = shares
	}
	return out
}
