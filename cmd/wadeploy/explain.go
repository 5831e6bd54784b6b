package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"wadeploy/internal/experiment"
	"wadeploy/internal/petstore"
	"wadeploy/internal/rubis"
	"wadeploy/internal/sim"
	"wadeploy/internal/trace"
	"wadeploy/internal/workload"
)

// spanRecord is one explain -json output line: a span of the page's causal
// tree tagged with the page whose request produced it. The page, layer,
// label, start_ns, end_ns and depth fields predate the causal tracer and
// keep their shape; trace_id, span_id, parent_id, node, peer, cause and
// async carry the cross-node causality the tracer added.
type spanRecord struct {
	Page     string `json:"page"`
	Layer    string `json:"layer"`
	Label    string `json:"label"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Depth    int    `json:"depth"`
	TraceID  string `json:"trace_id"`
	SpanID   int32  `json:"span_id"`
	ParentID int32  `json:"parent_id"`
	Node     string `json:"node"`
	Peer     string `json:"peer,omitempty"`
	Cause    string `json:"cause"`
	Async    bool   `json:"async,omitempty"`
}

// spanDepths returns each span's distance from the root. Spans are appended
// in open order, so a parent always precedes its children.
func spanDepths(t *trace.Trace) []int {
	depths := make([]int, len(t.Spans))
	for i := 1; i < len(t.Spans); i++ {
		if p := t.Spans[i].Parent; p >= 0 && int(p) < i {
			depths[i] = depths[p] + 1
		}
	}
	return depths
}

// writeSpans emits one trace's spans as JSONL records in creation order.
func writeSpans(enc *json.Encoder, t *trace.Trace) error {
	depths := spanDepths(t)
	for i, s := range t.Spans {
		rec := spanRecord{
			Page:     t.Page,
			Layer:    s.Layer,
			Label:    s.Label,
			StartNs:  int64(s.Start),
			EndNs:    int64(s.End),
			Depth:    depths[i],
			TraceID:  fmt.Sprintf("%#016x", uint64(t.ID)),
			SpanID:   int32(s.ID),
			ParentID: int32(s.Parent),
			Node:     s.Node,
			Peer:     s.Peer,
			Cause:    s.Cause.String(),
			Async:    s.Async,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// explain deploys -app under -config and prints the causal span tree of
// every page in a representative remote-client session — where each page's
// milliseconds go (TCP, RMI, SQL, rendering, pushes), on which node, and
// why (service, WAN wait, queueing, retry). With -json it emits the spans
// machine-readably instead: one JSON object per line.
func explain(w io.Writer, f *flags, _ []*experiment.Result) error {
	appID, cfg, asJSON := f.app, f.cfg, f.json
	var finished []*trace.Trace
	tb, err := experiment.Deploy(experiment.Spec{
		App:    appID,
		Policy: cfg,
		Trace: &trace.Options{
			SampleEvery: 1,
			MaxTraces:   64,
			OnFinish:    func(t *trace.Trace) { finished = append(finished, t) },
		},
		RunOptions: experiment.RunOptions{Seed: f.run.Seed},
	})
	if err != nil {
		return err
	}
	env, tracer := tb.Env, trace.FromEnv(tb.Env)
	remote := tb.Groups[1] // the first edge's client group
	request := remote.Request
	var steps []workload.Step
	switch appID {
	case experiment.PetStore:
		user := petstore.UserID(0)
		steps = []workload.Step{
			{Page: petstore.PageMain},
			{Page: petstore.PageCategory, Params: map[string]string{"cat": petstore.CategoryID(1)}},
			{Page: petstore.PageProduct, Params: map[string]string{"product": petstore.ProductID(1, 1)}},
			{Page: petstore.PageItem, Params: map[string]string{"item": petstore.ItemID(1, 1, 1)}},
			{Page: petstore.PageSearch, Params: map[string]string{"q": "P03"}},
			{Page: petstore.PageSignin},
			{Page: petstore.PageVerifySignin, Params: map[string]string{"user": user, "password": "pw-" + user}},
			{Page: petstore.PageCart, Params: map[string]string{"item": petstore.ItemID(1, 1, 1)}},
			{Page: petstore.PageCheckout},
			{Page: petstore.PagePlaceOrder},
			{Page: petstore.PageBilling},
			{Page: petstore.PageCommit},
			{Page: petstore.PageSignout},
		}
	case experiment.RUBiS:
		nick, pass := rubis.Nickname(0), rubis.Password(0)
		steps = []workload.Step{
			{Page: rubis.PageMain},
			{Page: rubis.PageCategory, Params: map[string]string{"cat": "3"}},
			{Page: rubis.PageItem, Params: map[string]string{"item": "23"}},
			{Page: rubis.PageBids, Params: map[string]string{"item": "23"}},
			{Page: rubis.PagePutBidForm, Params: map[string]string{"nick": nick, "password": pass, "item": "23"}},
			{Page: rubis.PageStoreBid, Params: map[string]string{"nick": nick, "password": pass, "item": "23", "bid": "999"}},
		}
	}

	client := workload.Client{Node: remote.ClientNode, ID: "explain-client"}
	if !asJSON {
		fmt.Fprintf(w, "Per-page causal traces: %s / %s (remote client %s; stub caches warm)\n\n",
			appID, cfg.Title(), client.Node)
	}
	key := trace.ClientKey(client.ID)
	ids := make([]trace.TraceID, len(steps))
	rts := make([]time.Duration, len(steps))
	var failed error
	env.Spawn("explain", func(p *sim.Proc) {
		// First pass warms stub caches and session state untraced.
		for _, step := range steps {
			if _, err := request(p, client, step); err != nil {
				failed = fmt.Errorf("warm %s: %w", step.Page, err)
				return
			}
		}
		// Second pass traces every page.
		for i, step := range steps {
			ids[i] = trace.PageTraceID(key, uint64(i))
			done := tracer.StartPage(p, ids[i], "explain", step.Page, client.Node, false)
			rt, err := request(p, client, step)
			done()
			if err != nil {
				failed = fmt.Errorf("%s: %w", step.Page, err)
				return
			}
			rts[i] = rt
		}
	})
	env.RunAll()
	env.Close()
	if failed != nil {
		return failed
	}
	// Traces finish when their async hand-offs (JMS pushes, replica pulls)
	// complete, which may be after the page returns; re-order by page.
	byID := make(map[trace.TraceID]*trace.Trace, len(finished))
	for _, t := range finished {
		byID[t.ID] = t
	}
	enc := json.NewEncoder(w)
	for i, step := range steps {
		t := byID[ids[i]]
		if t == nil {
			return fmt.Errorf("%s: trace did not finish (leaked async context)", step.Page)
		}
		if asJSON {
			if err := writeSpans(enc, t); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(w, "%s — %v\n%s\n", step.Page, rts[i].Round(100*time.Microsecond), trace.Format(t))
	}
	return nil
}
