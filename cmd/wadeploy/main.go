// Command wadeploy regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	wadeploy [flags] table6|table7|fig7|fig8|metrics|faults|adapt|consistency|inventory|plan|explain|trace|sweep-latency|sweep-load|scale|topo|all
//
// table6/fig7 run Java Pet Store, table7/fig8 run RUBiS; each table run
// executes all five configurations (centralized, remote façade, stateful
// component caching, query caching, asynchronous updates) under the paper's
// 30 req/s three-group workload and prints the per-page (table) or
// per-session (figure) average response times. metrics runs a table and
// prints a per-configuration comparison of every substrate counter.
//
// Flags: -quick (short run), -seed, -warmup, -duration, -parallel N
// (concurrent runs per table/sweep; 0 = one per CPU, 1 = sequential),
// -faults canonical|FILE (arm a WAN fault schedule plus the default
// resilience policies on every run; the faults command prints the
// availability table — per-page success rates on the partitioned edge),
// -diag (CPU/RMI/JMS counters), -p95 (tail-latency tables), -ext (append the
// DB-replication extension row), -csv FILE (long-format export),
// -metrics-out FILE (full registry snapshots as JSON; -metrics-tick sets the
// virtual-time series sampling interval), -json (machine-readable explain
// output, one span per line), and -app/-config to select the target of
// plan, explain and the sweeps. plan runs the deployment advisor
// (internal/planner): it ranks every valid pattern combination by predicted
// mean response time and prints the recommended placement; -sim adds
// simulated means and prediction error, -json emits the full advisor
// document. explain prints per-page causal span trees
// (TCP/RMI/SQL/render/push, with node and cause attribution) for a remote
// client; trace runs every configuration with the causal tracer armed
// (-sample selects the deterministic 1-in-N page sampler) and prints the
// critical-path blame tables, with -config choosing which configuration
// also gets per-page detail and example span trees, and -json exporting the
// observed page mix + per-link blame in the shape the deployment advisor
// consumes; sweep-latency and sweep-load are WAN-latency and offered-load
// sensitivity studies. Runs are independent seeded simulations, so any
// -parallel setting prints byte-identical tables (and writes byte-identical
// -metrics-out files).
//
// topo sweeps hierarchical topologies: for each -edges count it builds a
// main → hubs → edge-PoPs hierarchy, spreads the paper's total offered load
// over the N edge client groups, optionally hash-partitions the hot entities
// across the PoPs (-partitions, 0 = full replication), and prints session
// latency, WAN traffic, replica footprint and push counts per point. The
// stdout table is independent of -parallel.
//
// scale exercises the streaming workload engine (internal/workload.RunStream)
// with -sessions concurrent Pet Store clients spread over eight edge nodes
// and -shards engine lanes. Its stdout block depends only on the seed,
// session count, shard count and durations — never on -parallel — so CI can
// diff it across worker counts; wall-clock throughput goes to stderr.
// -trace arms the bounded flight recorder and blame aggregation on every
// lane; the trace block (sampled/evicted counts plus per-page cause blame)
// joins the deterministic stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/experiment"
	"wadeploy/internal/faults"
	"wadeploy/internal/metrics"
	"wadeploy/internal/petstore"
	"wadeploy/internal/trace"
	"wadeploy/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wadeploy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wadeploy", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed (same seed => identical tables)")
	warmup := fs.Duration("warmup", 5*time.Minute, "virtual warm-up discarded from statistics")
	duration := fs.Duration("duration", time.Hour, "measured virtual duration per configuration")
	quick := fs.Bool("quick", false, "short run (30s warm-up, 4min measurement)")
	parallel := fs.Int("parallel", 0, "concurrent runs per table/sweep (0 = one per CPU, 1 = sequential)")
	diag := fs.Bool("diag", false, "print per-run diagnostics (CPU, RMI, JMS counters)")
	p95 := fs.Bool("p95", false, "also print 95th-percentile tables")
	ext := fs.Bool("ext", false, "append extension configurations (DB replication) to table runs")
	csvPath := fs.String("csv", "", "also write table results as CSV to this file")
	metricsOut := fs.String("metrics-out", "", "write per-configuration metrics registry snapshots as JSON to this file")
	metricsTick := fs.Duration("metrics-tick", time.Minute, "virtual-time sampling interval for counter/gauge series (with -metrics-out)")
	jsonOut := fs.Bool("json", false, "machine-readable output (explain: one JSON span per line; plan: full advisor document)")
	sim := fs.Bool("sim", false, "with plan: also simulate the five paper configurations and print prediction error")
	appFlag := fs.String("app", "petstore", "application for sweeps: petstore|rubis")
	cfgFlag := fs.String("config", "async-updates", "configuration for sweeps: centralized|remote-facade|stateful-caching|query-caching|async-updates")
	faultsFlag := fs.String("faults", "", "fault schedule: 'canonical' or a JSON schedule file; arms the WAN-outage script and the resilience policies on every run")
	sessions := fs.Int("sessions", 100000, "scale: concurrent client sessions")
	shards := fs.Int("shards", 8, "scale: engine lanes (results depend on the shard count, never the worker count)")
	sample := fs.Uint64("sample", 16, "trace/scale -trace: sample 1 in N page views (pure function of the trace ID)")
	traceOn := fs.Bool("trace", false, "scale: arm the flight recorder and critical-path blame aggregation")
	observed := fs.String("observed", "", "plan: a `wadeploy trace -json` export; rank placements on its observed page mix (-config selects the run)")
	epoch := fs.Duration("epoch", 30*time.Second, "adapt: controller observation epoch (virtual time)")
	edgesFlag := fs.String("edges", "2,8,32,128", "topo: comma-separated edge counts to sweep")
	partitions := fs.Int("partitions", 8, "topo: hash partitions for the hot entities (0 = full replication)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiment.RunOptions{Seed: *seed, Warmup: *warmup, Duration: *duration}
	if *quick {
		opts = experiment.QuickRunOptions()
		opts.Seed = *seed
	}
	opts.Parallelism = *parallel
	if *metricsOut != "" {
		opts.MetricsTick = *metricsTick
	}
	if *faultsFlag != "" {
		var err error
		if opts.Schedule, err = loadSchedule(*faultsFlag, opts); err != nil {
			return err
		}
		opts.Resilience = true
	}
	cmds := fs.Args()
	if len(cmds) == 0 {
		cmds = []string{"all"}
	}
	for _, cmd := range cmds {
		switch cmd {
		case "table6":
			if err := table(experiment.PetStore, opts, false, *diag, *p95, *ext, *csvPath, *metricsOut); err != nil {
				return err
			}
		case "table7":
			if err := table(experiment.RUBiS, opts, false, *diag, *p95, *ext, *csvPath, *metricsOut); err != nil {
				return err
			}
		case "fig7":
			if err := table(experiment.PetStore, opts, true, *diag, false, false, "", ""); err != nil {
				return err
			}
		case "fig8":
			if err := table(experiment.RUBiS, opts, true, *diag, false, false, "", ""); err != nil {
				return err
			}
		case "metrics":
			app, err := parseApp(*appFlag)
			if err != nil {
				return err
			}
			var results []*experiment.Result
			if *ext {
				results, err = experiment.RunTableWithExtensions(app, opts)
			} else {
				results, err = experiment.RunTable(app, opts)
			}
			if err != nil {
				return err
			}
			fmt.Printf("Per-configuration metrics: %s\n", app)
			fmt.Print(experiment.FormatMetricsComparison(results))
			if *metricsOut != "" {
				if err := writeMetrics(*metricsOut, app, opts, results); err != nil {
					return err
				}
			}
		case "faults":
			app, err := parseApp(*appFlag)
			if err != nil {
				return err
			}
			if err := availability(app, opts, *diag, *metricsOut); err != nil {
				return err
			}
		case "consistency":
			app, err := parseApp(*appFlag)
			if err != nil {
				return err
			}
			if err := consistency(app, opts, *diag); err != nil {
				return err
			}
		case "inventory":
			printInventory()
		case "plan":
			app, err := parseApp(*appFlag)
			if err != nil {
				return err
			}
			if err := plan(app, *jsonOut, *sim, *observed, *cfgFlag, opts); err != nil {
				return err
			}
		case "adapt":
			app, cfg, err := sweepTarget(*appFlag, *cfgFlag)
			if err != nil {
				return err
			}
			if err := adapt(app, cfg, *epoch, opts); err != nil {
				return err
			}
		case "explain":
			app, cfg, err := sweepTarget(*appFlag, *cfgFlag)
			if err != nil {
				return err
			}
			if err := explain(app, cfg, *seed, *jsonOut); err != nil {
				return err
			}
		case "sweep-latency":
			app, cfg, err := sweepTarget(*appFlag, *cfgFlag)
			if err != nil {
				return err
			}
			lats := []time.Duration{
				25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
				200 * time.Millisecond, 400 * time.Millisecond,
			}
			pts, err := experiment.LatencySweep(app, cfg, lats, opts)
			if err != nil {
				return err
			}
			fmt.Printf("WAN-latency sweep: %s / %s\n", app, cfg.Title())
			fmt.Print(experiment.FormatSweep("wan-one-way-ms", pts))
		case "sweep-load":
			app, cfg, err := sweepTarget(*appFlag, *cfgFlag)
			if err != nil {
				return err
			}
			pts, err := experiment.LoadSweep(app, cfg, []float64{0.5, 1, 2, 4, 8}, opts)
			if err != nil {
				return err
			}
			fmt.Printf("Load sweep: %s / %s\n", app, cfg.Title())
			fmt.Print(experiment.FormatSweep("offered-req-s", pts))
		case "scale":
			if err := scale(*sessions, *shards, *parallel, *traceOn, *sample, opts); err != nil {
				return err
			}
		case "topo":
			app, cfg, err := sweepTarget(*appFlag, *cfgFlag)
			if err != nil {
				return err
			}
			if err := topo(app, cfg, *edgesFlag, *partitions, opts); err != nil {
				return err
			}
		case "trace":
			app, err := parseApp(*appFlag)
			if err != nil {
				return err
			}
			if err := traceReport(app, opts, *cfgFlag, *jsonOut, *ext, *sample); err != nil {
				return err
			}
		case "all":
			for _, app := range []experiment.AppID{experiment.PetStore, experiment.RUBiS} {
				var results []*experiment.Result
				var err error
				if *ext {
					results, err = experiment.RunTableWithExtensions(app, opts)
				} else {
					results, err = experiment.RunTable(app, opts)
				}
				if err != nil {
					return err
				}
				fmt.Print(experiment.FormatTable(results))
				fmt.Println()
				if *p95 {
					fmt.Print(experiment.FormatTableP95(results))
					fmt.Println()
				}
				fmt.Print(experiment.FormatFigure(results))
				fmt.Println()
				if *diag {
					fmt.Print(experiment.FormatDiagnostics(results))
					fmt.Println()
				}
			}
		default:
			return fmt.Errorf("unknown command %q (want table6|table7|fig7|fig8|metrics|faults|adapt|consistency|inventory|plan|explain|sweep-latency|sweep-load|scale|topo|all)", cmd)
		}
	}
	return nil
}

// loadSchedule resolves the -faults flag: the literal "canonical" builds the
// canonical WAN-outage script scaled to the run's warm-up and duration;
// anything else is a path to a JSON schedule file.
func loadSchedule(arg string, opts experiment.RunOptions) (*faults.Schedule, error) {
	if arg == "canonical" {
		return faults.Canonical(opts.Warmup, opts.Duration), nil
	}
	s, err := faults.Load(arg)
	if err != nil {
		return nil, fmt.Errorf("-faults: %w", err)
	}
	return s, nil
}

// availability runs the availability experiment and prints the Table-6-style
// success-rate table for the partitioned edge's clients.
func availability(app experiment.AppID, opts experiment.RunOptions, diag bool, metricsOut string) error {
	results, err := experiment.RunAvailability(app, opts)
	if err != nil {
		return err
	}
	name := "canonical-outage"
	if opts.Schedule != nil && opts.Schedule.Name != "" {
		name = opts.Schedule.Name
	}
	fmt.Printf("Availability experiment: %s under schedule %q\n", app, name)
	fmt.Print(experiment.FormatAvailability(results))
	full := make([]*experiment.Result, len(results))
	for i, r := range results {
		full[i] = r.Full
	}
	if diag {
		fmt.Println()
		fmt.Print(experiment.FormatDiagnostics(full))
	}
	if metricsOut != "" {
		return writeMetrics(metricsOut, app, opts, full)
	}
	return nil
}

// scale runs the streaming workload engine at -sessions concurrent clients.
// The stdout block is deterministic in (seed, sessions, shards, durations)
// and independent of -parallel, so CI diffs it across worker counts;
// wall-clock throughput goes to stderr. With -trace the flight recorder and
// blame aggregation run alongside: the trace block (sampled/dropped counts
// plus per-page cause blame) is part of the deterministic stdout.
func scale(sessionsN, shardsN, workers int, traceOn bool, sample uint64, opts experiment.RunOptions) error {
	cfg := workload.StreamConfig{
		Seed:     opts.Seed,
		Classes:  petstore.StreamWorkload(sessionsN),
		Warmup:   opts.Warmup,
		Duration: opts.Duration,
		Shards:   shardsN,
		Workers:  workers, // <1 falls back to one worker per shard
	}
	if traceOn {
		if sample < 1 {
			sample = 1
		}
		// A small per-lane ring keeps the recorder's working set (ring slots
		// plus the recycled trace objects cycling through them) cache-resident;
		// large rings turn every push into a cache miss and cost ~10% events/s.
		cfg.Trace = &trace.Options{SampleEvery: sample, MaxTraces: 128}
	}
	start := time.Now()
	res, err := workload.RunStream(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Printf("Scale run: %d clients, %d shards, seed %d, %v warm-up + %v measured\n",
		sessionsN, shardsN, opts.Seed, opts.Warmup, opts.Duration)
	fmt.Printf("events=%d pages=%d sessions=%d errors=%d\n",
		res.Events, res.Pages, res.Sessions, res.Stats.Errors())
	fmt.Print(res.Stats)
	if res.Blame != nil {
		fmt.Printf("trace: 1 in %d sampled=%d evicted=%d recorded=%d\n",
			sample, res.TraceSampled, res.TraceDropped, len(res.Traces))
		for _, e := range res.Blame.Pages() {
			loc := "remote"
			if e.Key.Local {
				loc = "local"
			}
			var mean time.Duration
			if e.Agg.Count > 0 {
				mean = e.Agg.Total / time.Duration(e.Agg.Count)
			}
			fmt.Printf("blame %-8s %-14s %-6s views=%-8d mean=%-8v svc=%v wan=%v\n",
				e.Key.Pattern, e.Key.Page, loc, e.Agg.Count, mean,
				e.Agg.ByCause[trace.CauseService]/time.Duration(max(e.Agg.Count, 1)),
				e.Agg.ByCause[trace.CauseWAN]/time.Duration(max(e.Agg.Count, 1)))
		}
	}
	fmt.Fprintf(os.Stderr, "scale: wall %.2fs, %.0f events/s, %.0f simulated pages/s\n",
		wall.Seconds(), float64(res.Events)/wall.Seconds(), float64(res.Pages)/wall.Seconds())
	if res.Clamped > 0 {
		fmt.Fprintf(os.Stderr, "scale: warning: %d cross-lane sends fell inside the barrier window and were delivered late, at the round end\n", res.Clamped)
	}
	return nil
}

// parseApp resolves the -app flag.
func parseApp(app string) (experiment.AppID, error) {
	switch a := experiment.AppID(app); a {
	case experiment.PetStore, experiment.RUBiS:
		return a, nil
	}
	return "", fmt.Errorf("unknown app %q (want petstore|rubis)", app)
}

// sweepTarget resolves the -app and -config flags.
func sweepTarget(app, cfg string) (experiment.AppID, core.Policy, error) {
	a, err := parseApp(app)
	if err != nil {
		return "", core.Policy{}, err
	}
	for _, c := range core.Configs {
		if c.String() == cfg {
			return a, c, nil
		}
	}
	return "", core.Policy{}, fmt.Errorf("unknown config %q", cfg)
}

func table(app experiment.AppID, opts experiment.RunOptions, figure, diag, p95, ext bool, csvPath, metricsOut string) error {
	var results []*experiment.Result
	var err error
	if ext {
		results, err = experiment.RunTableWithExtensions(app, opts)
	} else {
		results, err = experiment.RunTable(app, opts)
	}
	if err != nil {
		return err
	}
	if figure {
		fmt.Print(experiment.FormatFigure(results))
	} else {
		fmt.Print(experiment.FormatTable(results))
	}
	if p95 {
		fmt.Println()
		fmt.Print(experiment.FormatTableP95(results))
	}
	if diag {
		fmt.Println()
		fmt.Print(experiment.FormatDiagnostics(results))
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiment.WriteCSV(f, results); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		if err := writeMetrics(metricsOut, app, opts, results); err != nil {
			return err
		}
	}
	return nil
}

// metricsFile is the -metrics-out JSON document: one registry snapshot per
// configuration, plus the run parameters needed to interpret the series.
type metricsFile struct {
	App    experiment.AppID `json:"app"`
	Seed   int64            `json:"seed"`
	TickNs int64            `json:"tick_ns,omitempty"`
	Runs   []metricsRun     `json:"runs"`
}

type metricsRun struct {
	Config  string            `json:"config"`
	Metrics *metrics.Snapshot `json:"metrics"`
}

// writeMetrics dumps every run's registry snapshot. Snapshots are sorted by
// instrument name and runs keep table order, so the same seed produces a
// byte-identical file regardless of -parallel.
func writeMetrics(path string, app experiment.AppID, opts experiment.RunOptions, results []*experiment.Result) error {
	doc := metricsFile{App: app, Seed: opts.Seed, TickNs: int64(opts.MetricsTick)}
	for _, r := range results {
		doc.Runs = append(doc.Runs, metricsRun{Config: r.Config.String(), Metrics: r.Metrics})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printInventory() {
	fmt.Println("Table 1. EJBs in Java Pet Store.")
	fmt.Printf("%-26s %-18s %s\n", "EJB Name", "Kind", "Description")
	for _, e := range petstore.ComponentInventory() {
		kind := e.Kind.String()
		if e.Kind == container.Entity {
			kind = "entity"
		}
		fmt.Printf("%-26s %-18s %s\n", e.Name, kind, e.Desc)
	}
}
