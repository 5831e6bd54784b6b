package main

import (
	"encoding/json"
	"fmt"
	"io"

	"wadeploy/internal/experiment"
	"wadeploy/internal/trace"
)

// maxExampleTrees bounds the span trees printed by the text report.
const maxExampleTrees = 3

// traceFile is the `wadeploy trace -json` document: per configuration, the
// observed page mix with per-cause and per-link critical-path blame. The
// profile shape is what planner models consume (see
// planner.Model.WithObservedVisits and trace.Profile.VisitShares).
type traceFile struct {
	App         experiment.AppID `json:"app"`
	Seed        int64            `json:"seed"`
	SampleEvery uint64           `json:"sample_every"`
	Runs        []traceRun       `json:"runs"`
}

type traceRun struct {
	Config  string         `json:"config"`
	Sampled int64          `json:"sampled"`
	Dropped int64          `json:"dropped"`
	Profile *trace.Profile `json:"profile"`
}

// traceReport prints the critical-path blame tables (text) or the aggregated
// profile document (-json) of every configuration's traced run. -config
// selects which configuration gets the per-page table and example span
// trees.
func traceReport(w io.Writer, f *flags, results []*experiment.Result) error {
	sample := max(f.sample, 1)
	if f.json {
		doc := traceFile{App: f.app, Seed: f.run.Seed, SampleEvery: sample}
		for _, r := range results {
			if r.Trace == nil {
				continue
			}
			doc.Runs = append(doc.Runs, traceRun{
				Config:  r.Spec.Policy.String(),
				Sampled: r.Trace.Sampled,
				Dropped: r.Trace.Dropped,
				Profile: r.Trace.Blame.Profile(),
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	fmt.Fprintf(w, "Causal tracing: %s, 1 in %d page views sampled.\n", f.app, sample)
	fmt.Fprint(w, experiment.FormatBlame(results))
	for _, r := range results {
		if r.Spec.Policy != f.cfg || r.Trace == nil {
			continue
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, experiment.FormatBlamePages(r))
		if len(r.Trace.Traces) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nExample span trees (flight recorder holds %d of %d sampled):\n",
			len(r.Trace.Traces), r.Trace.Sampled)
		for i, t := range r.Trace.Traces {
			if i >= maxExampleTrees {
				break
			}
			fmt.Fprint(w, trace.Format(t))
		}
	}
	return nil
}
