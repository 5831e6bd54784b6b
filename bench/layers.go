package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
)

// ---------------------------------------------------------------- probes --

// probeResult is what one call into a layer costs the host.
type probeResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	EventsPerOp float64 `json:"events_per_op"` // engine events one call dispatches
	Ops         int64   `json:"ops"`
}

func layerOf(metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	return layer
}

// measureProbe times batches of calls, growing the batch until one lasts at
// least minTime, and reports that batch. Batches grow at most twentyfold, so
// the last one is sized from a batch long enough to predict it: a probe costs
// little more than minTime.
func measureProbe(p probeDef, minTime time.Duration, hs *hostSpans) (probeResult, error) {
	const maxOps = 1 << 26
	n := 1000
	for {
		run, err := p.prepare(n)
		if err != nil {
			return probeResult{}, fmt.Errorf("%s: prepare: %w", p.Metric, err)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		end := hs.open("probe."+p.Metric, layerOf(p.Metric))
		t0 := time.Now()
		ops, err := run.run()
		dt := time.Since(t0)
		end(ops)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return probeResult{}, fmt.Errorf("%s: %w", p.Metric, err)
		}
		if ops <= 0 {
			return probeResult{}, fmt.Errorf("%s: batch of %d made no call", p.Metric, n)
		}
		if dt >= minTime || n >= maxOps {
			res := probeResult{
				NsPerOp:     float64(dt.Nanoseconds()) / float64(ops),
				AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
				Ops:         ops,
			}
			if run.events != nil {
				res.EventsPerOp = float64(run.events()) / float64(ops)
			}
			return res, nil
		}
		grow := 1.15 * float64(minTime) / float64(max(dt, time.Microsecond))
		n = int(float64(n) * min(max(grow, 1.5), 20))
	}
}

// embeds lists the calls into lower layers that one call of a probe already
// contains, so a layer's estimate does not charge them twice. Engine events
// are not listed: every probe counts the events it dispatches, and they are
// priced by the workload's engine probe.
var embeds = map[string]map[string]float64{
	// TCP handshake (2) + request + response.
	"web.host_ns_per_get": {"simnet.host_ns_per_transfer_star": 4},
	// Request + reply.
	"rmi.host_ns_per_invoke_wan": {"simnet.host_ns_per_transfer_star": 2},
	// A bean call is a local stub invocation plus the container's dispatch.
	"container.host_ns_per_stateless_call": {"rmi.host_ns_per_invoke_local": 1},
	// ejbLoad's SELECT and ejbStore's UPDATE.
	"container.host_ns_per_update_fields": {"sqldb.host_ns_per_point_select": 1, "sqldb.host_ns_per_update": 1},
	// Hand-off to the provider plus one send per subscriber (2 edges).
	"jms.host_ns_per_publish_deliver": {"simnet.host_ns_per_transfer_star": 3},
}

// netCost is a probe's ns/op with the engine events it dispatches and the
// lower-layer calls it embeds taken out: what the layer itself adds.
func netCost(metric string, res map[string]probeResult, switchNs float64) float64 {
	r := res[metric]
	net := r.NsPerOp - r.EventsPerOp*switchNs
	for inner, n := range embeds[metric] {
		net -= n * netCost(inner, res, switchNs)
	}
	return math.Max(net, 0)
}

// ----------------------------------------------------------- paper cells --

//go:embed paper_cells.json
var paperCellsJSON []byte

// paperCell is one number EXPERIMENTS.md transcribes from the paper: a page
// cell of Tables 6-7, or (Page empty) a session-average bar of Figures 7-8.
type paperCell struct {
	App     string  `json:"app"`
	Config  string  `json:"config"`
	Pattern string  `json:"pattern"`
	Page    string  `json:"page,omitempty"`
	Local   bool    `json:"local"`
	PaperMs float64 `json:"paper_ms"`
}

// paperAbsErrPct is the mean absolute relative error, in percent, of the
// round's simulated means against the paper cells of (app, config). cells is
// how many the paper gives, compared how many of them the round has samples
// for (a -smoke round is too short to visit every page).
func paperAbsErrPct(app, config string, out *roundOutput) (pct float64, cells, compared int, err error) {
	var file struct {
		Cells []paperCell `json:"cells"`
	}
	if err := json.Unmarshal(paperCellsJSON, &file); err != nil {
		return 0, 0, 0, fmt.Errorf("paper_cells.json: %w", err)
	}
	var sum float64
	for _, c := range file.Cells {
		if c.App != app || c.Config != config {
			continue
		}
		cells++
		var weighted, count float64
		for _, s := range out.Series {
			if s.Pattern == c.Pattern && s.Local == c.Local && (c.Page == "" || c.Page == s.Page) {
				weighted += float64(s.MeanNs) * float64(s.Count)
				count += float64(s.Count)
			}
		}
		if count == 0 {
			continue
		}
		ours := weighted / count / 1e6
		sum += math.Abs(ours-c.PaperMs) / c.PaperMs
		compared++
	}
	return 100 * ratio(sum, float64(compared)), cells, compared, nil
}

// ------------------------------------------------------------- per layer --

// layerInputs is everything the per-layer metrics of one workload are
// computed from.
type layerInputs struct {
	W        *workloadDef
	Untraced []*roundSample // timed, untraced rounds of this invocation
	Traced   *roundSample
	Self     *selfTimes
	Procs1   *roundSample // one round at GOMAXPROCS=1
	Probes   map[string]probeResult
	Extra    map[string]float64 // metrics measured by the harness directly
}

func sumPrefix(m map[string]int64, prefix string) (total int64) {
	for name, v := range m {
		if strings.HasPrefix(name, prefix) {
			total += v
		}
	}
	return total
}

func maxHistP99(m map[string]histStat, prefix string) (worst int64) {
	for name, h := range m {
		if strings.HasPrefix(name, prefix) && h.P99Ns > worst {
			worst = h.P99Ns
		}
	}
	return worst
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// perLayerMetrics computes every per-layer metric of the registry. Counts
// (C) come from the first untraced round's drive region: same seed, so every
// round has the same ones.
func perLayerMetrics(in layerInputs) (map[string]float64, []string, error) {
	out := in.Untraced[0].Out
	c := func(name string) float64 { return float64(out.Drive[name]) }
	pages := float64(out.Pages)
	perPage := func(v float64) float64 { return ratio(v, pages) }
	perK := func(v float64) float64 { return 1000 * ratio(v, pages) }
	stores := c("container_ejb_store_total")
	var notes []string

	m := map[string]float64{
		"sim.events_per_page": perPage(float64(out.Events)),

		"simnet.msgs_per_page":           perPage(c("simnet_messages_total")),
		"simnet.bytes_per_page":          perPage(c("simnet_bytes_total")),
		"simnet.wan_bytes_per_page":      perPage(float64(out.WANBytes)),
		"simnet.virt_queue_wait_ms_p99":  float64(maxHistP99(out.Hists, "simnet_link_queue_wait_ns{")) / 1e6,
		"web.sessions_per_kpage":         perK(float64(sumPrefix(out.Drive, "web_sessions_created_total{"))),
		"rmi.calls_per_page":             perPage(c("rmi_local_calls_total") + c("rmi_remote_calls_total")),
		"rmi.wide_area_calls_per_page":   perPage(c("rmi_wide_area_calls_total")),
		"rmi.stubcache_hit_ratio":        ratio(c("rmi_stubcache_hits_total"), c("rmi_stubcache_hits_total")+c("rmi_stubcache_misses_total")),
		"rmi.retries_per_kpage":          perK(c("rmi_retries_total")),
		"container.bean_calls_per_page":  perPage(c("container_stateless_calls_total") + c("container_stateful_calls_total")),
		"container.ejb_loads_per_page":   perPage(c("container_ejb_load_total")),
		"container.ejb_stores_per_kpage": perK(stores),
		"container.replica_hit_ratio": ratio(c("container_replica_hits_total"),
			c("container_replica_hits_total")+c("container_replica_misses_total")+c("container_replica_stale_refreshes_total")+c("container_replica_remote_gets_total")),
		"container.querycache_hit_ratio": ratio(c("container_querycache_hits_total"),
			c("container_querycache_hits_total")+c("container_querycache_misses_total")+c("container_querycache_refresh_total")),
		"container.remote_gets_per_page":           perPage(c("container_replica_remote_gets_total")),
		"container.querycache_refreshes_per_store": ratio(c("container_querycache_refresh_total")+c("container_querycache_pushed_total"), stores),
		"container.sync_pushes_per_store":          ratio(c("container_sync_pushes_total"), stores),
		"container.async_publishes_per_store":      ratio(c("container_async_publishes_total"), stores),
		"container.updates_applied_per_store":      ratio(c("container_updates_applied_total"), stores),
		"sqldb.stmts_per_page":                     perPage(c("sqldb_statements_total")),
		"sqldb.rows_scanned_actual_per_page":       perPage(c("sqldb_rows_scanned_actual_total")),
		"sqldb.rows_returned_per_page":             perPage(c("sqldb_rows_returned_total")),
		"sqldb.rows_written_per_kpage":             perK(c("sqldb_rows_written_total")),
		"sqldb.index_scan_ratio":                   ratio(c("sqldb_index_scans_total"), c("sqldb_index_scans_total")+c("sqldb_full_scans_total")),
		"sqldb.plan_cache_hit_ratio":               ratio(c("sqldb_plan_cache_hits_total"), c("sqldb_plan_cache_hits_total")+c("sqldb_plan_cache_misses_total")),
		"jms.published_per_kpage":                  perK(c("jms_published_total")),
		"jms.deliveries_per_publish":               ratio(c("jms_delivered_total"), c("jms_published_total")),
		"jms.virt_delivery_lag_ms_p99":             float64(out.Hists["jms_delivery_lag_ns"].P99Ns) / 1e6,
		"metrics.series_count":                     float64(out.Instruments),
		"workload.null_pages_per_sec":              ratio(1e9, in.Probes["workload.null_pages_per_sec"].NsPerOp),
		"sqldb.snapshot_restore_ms":                in.Probes["sqldb.snapshot_restore_ms"].NsPerOp / 1e6,
		"experiment.paper_abs_err_pct":             0,
	}

	// P: every probe not converted above reports its ns/op under its name.
	var stmtAllocs, stmtProbes float64
	for _, p := range probes {
		if _, done := m[p.Metric]; !done {
			m[p.Metric] = in.Probes[p.Metric].NsPerOp
		}
		if strings.HasPrefix(p.Metric, "sqldb.host_ns_per_") {
			stmtAllocs += in.Probes[p.Metric].AllocsPerOp
			stmtProbes++
		}
	}
	m["sqldb.allocs_per_stmt"] = ratio(stmtAllocs, stmtProbes)
	for name, v := range in.Extra {
		m[name] = v
	}

	// Host metrics over this invocation's untraced rounds.
	var pps, allocs, gcCycles, gcPause, gcShare []float64
	for _, s := range in.Untraced {
		p := float64(s.Out.Pages)
		pps = append(pps, s.pagesPerSec())
		allocs = append(allocs, ratio(float64(s.Host.Mallocs), p))
		gcCycles = append(gcCycles, 1000*ratio(float64(s.Host.GCCycles), p))
		gcPause = append(gcPause, float64(s.Host.GCPause.Nanoseconds())/1e6)
		gcShare = append(gcShare, s.Host.GCCPUShare)
	}
	medPPS := median(pps)
	m["runtime.gc_cycles_per_kpage"] = median(gcCycles)
	m["runtime.gc_pause_ms_total"] = median(gcPause)
	m["runtime.gc_cpu_share"] = median(gcShare)
	m["bench.round_iqr_pct"] = 100 * summarize(pps).iqrShare()
	m["sim.procs1_speedup"] = ratio(in.Procs1.pagesPerSec(), medPPS)

	// V: the traced round.
	t := in.Traced
	m["trace.overhead_pct"] = 100 * (1 - ratio(t.pagesPerSec(), medPPS))
	m["trace.spans_per_page"] = ratio(float64(in.Self.Spans), float64(in.Self.Traces))
	m["trace.allocs_per_page_delta"] = ratio(float64(t.Host.Mallocs), float64(t.Out.Pages)) - median(allocs)
	for metric, cause := range map[string]string{
		"trace.virt_wan_share": "wan", "trace.virt_service_share": "service",
		"trace.virt_queueing_share": "queue", "trace.virt_retry_share": "retry",
	} {
		m[metric] = ratio(float64(t.Out.CauseNs[cause]), float64(t.Out.CauseTotalNs))
	}
	for _, layer := range []string{"web", "rmi", "container", "sqldb"} {
		m[layer+".virt_self_ms_per_page"] = in.Self.msPerPage(layer)
	}

	// D: host ns/page estimates, probe ns/op x matching per-page count (the
	// pairing table of the README), and how much of the measured cost they
	// explain.
	switchNs := in.Probes[in.W.EngineProbe].NsPerOp
	net := func(metric string) float64 {
		return netCost(metric, in.Probes, in.Probes["sim.host_ns_per_proc_switch"].NsPerOp)
	}
	verb := func(v string) float64 { return perPage(c(`sqldb_statements_total{verb="` + v + `"}`)) }
	est := map[string]float64{
		"sim":    m["sim.events_per_page"] * switchNs,
		"simnet": m["simnet.msgs_per_page"] * net(in.W.TransferProbe),
		"web":    perPage(float64(sumPrefix(out.Drive, "web_requests_total{"))) * net("web.host_ns_per_get"),
		"rmi": perPage(c("rmi_local_calls_total"))*net("rmi.host_ns_per_invoke_local") +
			perPage(c("rmi_remote_calls_total"))*net("rmi.host_ns_per_invoke_wan"),
		"container": m["container.bean_calls_per_page"]*net("container.host_ns_per_stateless_call") +
			perPage(c("container_replica_hits_total")+c("container_replica_misses_total"))*net("container.host_ns_per_replica_get") +
			perPage(c("container_querycache_hits_total")+c("container_querycache_misses_total")+c("container_querycache_refresh_total"))*net("container.host_ns_per_querycache_get") +
			perPage(stores)*net("container.host_ns_per_update_fields"),
		"sqldb": verb("select")*net("sqldb.host_ns_per_point_select") +
			verb("insert")*net("sqldb.host_ns_per_insert") +
			verb("update")*net("sqldb.host_ns_per_update"),
		"jms": perPage(c("jms_published_total")) * net("jms.host_ns_per_publish_deliver"),
	}
	var explained float64
	for layer, v := range est {
		m[layer+".host_ns_per_page_est"] = v
		explained += v
	}
	// Against the GOMAXPROCS=1 round: the probes ran at one thread too.
	m["bench.layer_coverage"] = ratio(explained, ratio(1e9, in.Procs1.pagesPerSec()))

	// Validation against the paper.
	if in.W.PaperApp == "" {
		notes = append(notes, "experiment.paper_abs_err_pct: unvalidated (no paper reference for this workload), reported as 0")
	} else {
		pct, cells, compared, err := paperAbsErrPct(in.W.PaperApp, in.W.PaperConfig, out)
		if err != nil {
			return nil, nil, err
		}
		if compared == 0 {
			return nil, nil, fmt.Errorf("no paper cell of %s/%s has a simulated series", in.W.PaperApp, in.W.PaperConfig)
		}
		if compared < cells {
			notes = append(notes, fmt.Sprintf("experiment.paper_abs_err_pct: only %d of %d paper cells have simulated samples", compared, cells))
		}
		m["experiment.paper_abs_err_pct"] = pct
	}
	if in.W.Name == "scale-stream" {
		notes = append(notes, "scale-stream runs a closed-form request model: its simulated times are unvalidated")
	}

	for _, def := range perLayer {
		v, ok := m[def.Name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not computed", def.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("per-layer metric %s is %v", def.Name, v)
		}
	}
	return m, notes, nil
}
