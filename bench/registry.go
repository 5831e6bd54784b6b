package main

import "time"

// The registries below are the single source of the benchmark's names.
// BENCHMARK.json at the repository root is `go run ./bench -print-contract`
// written to a file; TestContractMatchesRegistry fails when the two drift.

// Clocks. A metric never mixes them: "virtual" repeats exactly for a fixed
// seed, "count" is an exact count made by the program, the two host clocks
// are measured on the machine running the benchmark.
const (
	clockHost      = "host"
	clockHostCount = "host count"
	clockVirtual   = "virtual"
	clockCount     = "count"
)

// Sources of a metric: E end-to-end over timed rounds, C exact count from an
// untraced round, P host-time probe, V virtual self time from the traced
// round, D derived from the others.
const (
	srcE = "E"
	srcC = "C"
	srcP = "P"
	srcV = "V"
	srcD = "D"
)

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Clock  string
	Source string
	Pick   string // end-to-end only: which statistic of the timed rounds is reported
}

// How an end-to-end metric is reduced over the timed rounds. Every metric
// prints its median, quartiles, extremes and round count; Pick says which of
// them is the reported value.
const (
	// pickMedian is the rule.
	pickMedian = "median"
	// pickFast is the quartile on the metric's better side. The reference box
	// is a shared virtual machine: neighbours slow a round by up to a quarter
	// and never speed one up, so the two host-time rates are read where
	// interference is least. Measured over 13 sets of 7 rounds of
	// petstore-centralized, the spread between sets (inter-quartile range
	// over median) was 11.4% for the median and 5.8% for this quartile.
	pickFast = "fast quartile"
	// pickLast is for a high-water mark: where it stood after the last round.
	pickLast = "last"
)

// exact reports whether two runs of one seed must agree to the last digit.
func (m metricDef) exact() bool {
	return m.Clock == clockVirtual || m.Clock == clockCount
}

const (
	runSeconds   = 12 // BENCHMARK.json run_seconds: timed seconds per invocation
	minRounds    = 7  // never fewer timed rounds, however slow the host
	tracedRounds = 3  // untraced rounds a --trace 1 invocation runs beside the traced one
	pinnedProcs  = 2  // GOMAXPROCS the harness pins; nproc is 2 on the reference box
)

// roundSize is the input size of one round.
type roundSize struct {
	Warmup   time.Duration // virtual, discarded by workload.Stats
	Duration time.Duration // virtual, measured
	Clients  int           // scale-stream only
}

type workloadDef struct {
	Name  string
	Why   string // one line, at most 200 characters (BENCHMARK.json limit)
	Full  roundSize
	Smoke roundSize
	// PaperApp/PaperConfig select the cells of paper_cells.json this workload
	// is validated against; empty means "unvalidated".
	PaperApp, PaperConfig string
	// EngineProbe and TransferProbe name the probes whose ns/op price this
	// workload's engine events and network messages in the per-layer
	// host_ns_per_page_est figures (README, pairing table).
	EngineProbe, TransferProbe string
}

// Round sizes: the paper's methodology is 5 min warm-up + 60 min measured.
// The contract caps the driver's 92 invocations, builds included, at 3420 s,
// and the reference box runs at half speed for minutes at a time, so an
// invocation is sized to about 15 s there: the virtual hour is shortened
// until minRounds rounds fit in runSeconds (ISSUE 11: "shorten the virtual
// hour, never the round count below 7"). Every round still starts with the
// paper's 5 min warm-up.
var workloads = []workloadDef{
	{
		Name:        "petstore-centralized",
		Why:         "bare web-rmi-container-sqldb chain plus WAN HTTP, no replicas, caches or JMS: engine and SQL work shows, cache and propagation work must not",
		Full:        roundSize{Warmup: 5 * time.Minute, Duration: 30 * time.Minute},
		Smoke:       roundSize{Warmup: 2 * time.Second, Duration: 20 * time.Second},
		PaperApp:    "petstore",
		PaperConfig: "centralized",

		EngineProbe:   "sim.host_ns_per_proc_switch",
		TransferProbe: "simnet.host_ns_per_transfer_star",
	},
	{
		Name: "rubis-async",
		Why:  "all five patterns on: replicas and query caches are driven from the write side (JMS, MDB, aggregate re-query) and GC is heaviest, so refresh cost and allocation cuts show first",
		Full: roundSize{Warmup: 5 * time.Minute, Duration: 15 * time.Minute},
		// A bidder stores its first bid on its fourth page, 24 s in: a shorter
		// smoke round publishes nothing and cannot check the async design rule.
		Smoke:       roundSize{Warmup: 10 * time.Second, Duration: 20 * time.Second},
		PaperApp:    "rubis",
		PaperConfig: "async-updates",

		EngineProbe:   "sim.host_ns_per_proc_switch",
		TransferProbe: "simnet.host_ns_per_transfer_star",
	},
	{
		Name:  "petstore-topo128",
		Why:   "same layers over a 128-edge, 16-hub hierarchy with 8 hash partitions: multi-hop routing, owner-only pushes and remote gets for unowned keys guard the hierarchy path",
		Full:  roundSize{Warmup: 5 * time.Minute, Duration: 20 * time.Minute},
		Smoke: roundSize{Warmup: 2 * time.Second, Duration: 20 * time.Second},

		EngineProbe:   "sim.host_ns_per_proc_switch",
		TransferProbe: "simnet.host_ns_per_transfer_h128",
	},
	{
		Name:  "scale-stream",
		Why:   "100000 closed-loop clients on the Task/timer-wheel engine only; web, rmi, container, sqldb, simnet and jms are bypassed, so engine-queue work shows and Proc or SQL work must not",
		Full:  roundSize{Warmup: 2 * time.Second, Duration: 140 * time.Second, Clients: 100000},
		Smoke: roundSize{Warmup: 2 * time.Second, Duration: 20 * time.Second, Clients: 2000},

		EngineProbe:   "sim.host_ns_per_task_event",
		TransferProbe: "simnet.host_ns_per_transfer_star", // no messages: the estimate is 0
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd lists the metrics a user of the simulator sees. Every workload
// emits every one of them (contract), which is why ISSUE 11's
// failed_page_share (0 today; the contract wants metrics that are never 0 and
// carries failures in `attempted`/`failed`) and paper_abs_err_pct (no paper
// reference on two workloads) are not here; the latter is
// experiment.paper_abs_err_pct below.
var endToEnd = []metricDef{
	{"pages_per_sec", "pages/s", "higher", 0.25, clockHost, srcE, pickFast},
	{"cpu_us_per_page", "us", "lower", 0.25, clockHost, srcE, pickFast},
	{"allocs_per_page", "allocs", "lower", 0.02, clockHostCount, srcE, pickMedian},
	{"bytes_per_page", "B", "lower", 0.02, clockHostCount, srcE, pickMedian},
	{"peak_rss_mb", "MB", "lower", 0.10, clockHost, srcE, pickLast},
	{"setup_s", "s", "lower", 0.25, clockHost, srcE, pickMedian},
	{"sim_remote_ms_mean", "ms", "lower", 0.02, clockVirtual, srcE, pickMedian},
	{"sim_remote_ms_p99_worst", "ms", "lower", 0.10, clockVirtual, srcE, pickMedian},
}

func pl(name, unit, better, clock, source string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Clock: clock, Source: source}
}

// perLayer lists the single-layer metrics; the prefix before the first dot
// is the module (layer) name.
var perLayer = []metricDef{
	pl("sim.events_per_page", "count", "lower", clockCount, srcC),
	pl("sim.host_ns_per_task_event", "ns", "lower", clockHost, srcP),
	pl("sim.host_ns_per_proc_switch", "ns", "lower", clockHost, srcP),
	pl("sim.host_ns_per_resource_use", "ns", "lower", clockHost, srcP),
	pl("sim.host_ns_per_promise_roundtrip", "ns", "lower", clockHost, srcP),
	pl("sim.host_ns_per_page_est", "ns", "lower", clockHost, srcD),
	pl("sim.procs1_speedup", "x", "lower", clockHost, srcP),
	pl("sim.shard_speedup_w2", "x", "higher", clockHost, srcP),
	pl("sim.shard_efficiency_w2", "ratio", "higher", clockHost, srcP),

	pl("simnet.msgs_per_page", "count", "lower", clockCount, srcC),
	pl("simnet.bytes_per_page", "B", "lower", clockCount, srcC),
	pl("simnet.wan_bytes_per_page", "B", "lower", clockCount, srcC),
	pl("simnet.virt_queue_wait_ms_p99", "ms", "lower", clockVirtual, srcC),
	pl("simnet.host_ns_per_transfer_star", "ns", "lower", clockHost, srcP),
	pl("simnet.host_ns_per_transfer_h128", "ns", "lower", clockHost, srcP),
	pl("simnet.host_ns_per_page_est", "ns", "lower", clockHost, srcD),

	pl("web.sessions_per_kpage", "count", "lower", clockCount, srcC),
	pl("web.host_ns_per_get", "ns", "lower", clockHost, srcP),
	pl("web.virt_self_ms_per_page", "ms", "lower", clockVirtual, srcV),
	pl("web.host_ns_per_page_est", "ns", "lower", clockHost, srcD),

	pl("rmi.calls_per_page", "count", "lower", clockCount, srcC),
	pl("rmi.wide_area_calls_per_page", "count", "lower", clockCount, srcC),
	pl("rmi.stubcache_hit_ratio", "ratio", "higher", clockCount, srcC),
	pl("rmi.retries_per_kpage", "count", "lower", clockCount, srcC),
	pl("rmi.host_ns_per_invoke_local", "ns", "lower", clockHost, srcP),
	pl("rmi.host_ns_per_invoke_wan", "ns", "lower", clockHost, srcP),
	pl("rmi.virt_self_ms_per_page", "ms", "lower", clockVirtual, srcV),
	pl("rmi.host_ns_per_page_est", "ns", "lower", clockHost, srcD),

	pl("container.bean_calls_per_page", "count", "lower", clockCount, srcC),
	pl("container.ejb_loads_per_page", "count", "lower", clockCount, srcC),
	pl("container.ejb_stores_per_kpage", "count", "lower", clockCount, srcC),
	pl("container.replica_hit_ratio", "ratio", "higher", clockCount, srcC),
	pl("container.querycache_hit_ratio", "ratio", "higher", clockCount, srcC),
	pl("container.remote_gets_per_page", "count", "lower", clockCount, srcC),
	pl("container.querycache_refreshes_per_store", "count", "lower", clockCount, srcC),
	pl("container.sync_pushes_per_store", "count", "lower", clockCount, srcC),
	pl("container.async_publishes_per_store", "count", "lower", clockCount, srcC),
	pl("container.updates_applied_per_store", "count", "lower", clockCount, srcC),
	pl("container.host_ns_per_stateless_call", "ns", "lower", clockHost, srcP),
	pl("container.host_ns_per_replica_get", "ns", "lower", clockHost, srcP),
	pl("container.host_ns_per_querycache_get", "ns", "lower", clockHost, srcP),
	pl("container.host_ns_per_update_fields", "ns", "lower", clockHost, srcP),
	pl("container.virt_self_ms_per_page", "ms", "lower", clockVirtual, srcV),
	pl("container.host_ns_per_page_est", "ns", "lower", clockHost, srcD),

	pl("sqldb.stmts_per_page", "count", "lower", clockCount, srcC),
	pl("sqldb.rows_scanned_actual_per_page", "count", "lower", clockCount, srcC),
	pl("sqldb.rows_returned_per_page", "count", "lower", clockCount, srcC),
	pl("sqldb.rows_written_per_kpage", "count", "lower", clockCount, srcC),
	pl("sqldb.index_scan_ratio", "ratio", "higher", clockCount, srcC),
	pl("sqldb.plan_cache_hit_ratio", "ratio", "higher", clockCount, srcC),
	pl("sqldb.host_ns_per_point_select", "ns", "lower", clockHost, srcP),
	pl("sqldb.host_ns_per_ordered_limit", "ns", "lower", clockHost, srcP),
	pl("sqldb.host_ns_per_join", "ns", "lower", clockHost, srcP),
	pl("sqldb.host_ns_per_like", "ns", "lower", clockHost, srcP),
	pl("sqldb.host_ns_per_insert", "ns", "lower", clockHost, srcP),
	pl("sqldb.host_ns_per_update", "ns", "lower", clockHost, srcP),
	pl("sqldb.allocs_per_stmt", "allocs", "lower", clockHostCount, srcP),
	pl("sqldb.snapshot_restore_ms", "ms", "lower", clockHost, srcP),
	pl("sqldb.virt_self_ms_per_page", "ms", "lower", clockVirtual, srcV),
	pl("sqldb.host_ns_per_page_est", "ns", "lower", clockHost, srcD),

	pl("jms.published_per_kpage", "count", "lower", clockCount, srcC),
	pl("jms.deliveries_per_publish", "count", "lower", clockCount, srcC),
	pl("jms.virt_delivery_lag_ms_p99", "ms", "lower", clockVirtual, srcC),
	pl("jms.host_ns_per_publish_deliver", "ns", "lower", clockHost, srcP),
	pl("jms.host_ns_per_page_est", "ns", "lower", clockHost, srcD),

	pl("metrics.series_count", "count", "lower", clockCount, srcC),
	pl("metrics.host_ns_per_counter_inc", "ns", "lower", clockHost, srcP),
	pl("metrics.host_ns_per_observe", "ns", "lower", clockHost, srcP),
	pl("metrics.snapshot_ms", "ms", "lower", clockHost, srcP),

	pl("trace.overhead_pct", "%", "lower", clockHost, srcD),
	pl("trace.spans_per_page", "count", "lower", clockCount, srcV),
	pl("trace.allocs_per_page_delta", "allocs", "lower", clockHostCount, srcD),
	pl("trace.virt_wan_share", "ratio", "lower", clockVirtual, srcV),
	pl("trace.virt_service_share", "ratio", "lower", clockVirtual, srcV),
	pl("trace.virt_queueing_share", "ratio", "lower", clockVirtual, srcV),
	pl("trace.virt_retry_share", "ratio", "lower", clockVirtual, srcV),

	pl("workload.null_pages_per_sec", "pages/s", "higher", clockHost, srcP),
	pl("workload.host_ns_per_session_gen", "ns", "lower", clockHost, srcP),
	pl("workload.stream_bytes_per_client", "B", "lower", clockHostCount, srcD),

	pl("experiment.parallel_speedup_p2", "x", "higher", clockHost, srcP),
	pl("experiment.parallel_efficiency_p2", "ratio", "higher", clockHost, srcP),
	pl("experiment.paper_abs_err_pct", "%", "lower", clockVirtual, srcD),

	pl("runtime.gc_cycles_per_kpage", "count", "lower", clockHostCount, srcE),
	pl("runtime.gc_pause_ms_total", "ms", "lower", clockHost, srcE),
	pl("runtime.gc_cpu_share", "ratio", "lower", clockHost, srcE),

	pl("bench.layer_coverage", "ratio", "higher", clockHost, srcD),
	pl("bench.round_iqr_pct", "%", "lower", clockHost, srcD),
}

// contract is the shape of BENCHMARK.json.
type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractLayer    `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildContract() contract {
	c := contract{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, contractMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, contractLayer{m.Name, m.Unit, m.Better})
	}
	return c
}
