// Command wadeploy regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	wadeploy [flags] table6|table7|fig7|fig8|metrics|faults|adapt|consistency|inventory|plan|explain|trace|sweep-latency|sweep-load|scale|topo|all
//
// Every subcommand that runs experiments turns its flags into a list of
// experiment.Spec values (one per configuration, arm or sweep point), runs
// them with experiment.RunAll, and prints its report from the results.
//
// table6/fig7 run Java Pet Store, table7/fig8 run RUBiS; each table run
// executes all five configurations (centralized, remote façade, stateful
// component caching, query caching, asynchronous updates) under the paper's
// 30 req/s three-group workload and prints the per-page (table) or
// per-session (figure) average response times. metrics runs a table and
// prints a per-configuration comparison of every substrate counter.
//
// Flags: -quick (short run), -seed, -warmup, -duration, -parallel N
// (concurrent runs per command; 0 = one per CPU, 1 = sequential),
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
// sensitivity studies; consistency sweeps the replication arms of the
// staleness-latency spectrum; adapt runs the online re-placement controller
// against static deployments under the fault schedule. Runs are independent
// seeded simulations, so any -parallel setting prints byte-identical output
// (and writes byte-identical -metrics-out files).
//
// topo sweeps hierarchical topologies: for each -edges count it builds a
// main → hubs → edge-PoPs hierarchy, spreads the paper's total offered load
// over the N edge client groups, optionally hash-partitions the hot entities
// across the PoPs (-partitions, 0 = full replication), and prints session
// latency, WAN traffic, replica footprint and push counts per point.
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
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/experiment"
	"wadeploy/internal/faults"
	"wadeploy/internal/metrics"
	"wadeploy/internal/petstore"
	"wadeploy/internal/simnet"
	"wadeploy/internal/trace"
	"wadeploy/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wadeploy:", err)
		os.Exit(1)
	}
}

// flags is the parsed command line the subcommands read.
type flags struct {
	// run is what every spec starts from: seed, window, parallelism, the
	// -faults schedule and the -metrics-out sampling tick.
	run experiment.Spec
	app experiment.AppID
	cfg core.Policy

	diag, p95, ext, json, sim, trace bool
	csv, metricsOut, observed, edges string
	sessions, shards, partitions     int
	sample                           uint64
	epoch                            time.Duration

	// wall is how long the command's RunAll took (topo reports it).
	wall time.Duration
}

// spec returns the base spec of app under -config.
func (f *flags) spec(app experiment.AppID) experiment.Spec {
	s := f.run
	s.App, s.Policy = app, f.cfg
	return s
}

// command is one subcommand: the specs its flags ask for (nil for a command
// that runs no experiment) and the report it prints from their results.
type command struct {
	name  string
	specs func(f *flags) ([]experiment.Spec, error)
	print func(w io.Writer, f *flags, rs []*experiment.Result) error
}

// commands is every subcommand, in usage order.
var commands = []command{
	{"table6", tableOf(experiment.PetStore, true), printTable},
	{"table7", tableOf(experiment.RUBiS, true), printTable},
	{"fig7", tableOf(experiment.PetStore, false), printFigure},
	{"fig8", tableOf(experiment.RUBiS, false), printFigure},
	{"metrics", func(f *flags) ([]experiment.Spec, error) {
		return experiment.Table(f.spec(f.app), f.ext), nil
	}, printMetrics},
	{"faults", faultSpecs, printFaults},
	{"adapt", func(f *flags) ([]experiment.Spec, error) {
		s := f.spec(f.app)
		s.Adaptive = &controller.Options{Epoch: f.epoch}
		return experiment.AdaptArms(s), nil
	}, func(w io.Writer, _ *flags, rs []*experiment.Result) error {
		fmt.Fprint(w, experiment.FormatAdapt(rs))
		return nil
	}},
	{"consistency", func(f *flags) ([]experiment.Spec, error) {
		return experiment.ConsistencyArms(f.spec(f.app)), nil
	}, func(w io.Writer, f *flags, rs []*experiment.Result) error {
		fmt.Fprint(w, experiment.FormatConsistency(rs))
		diagnostics(w, f, rs)
		return nil
	}},
	{"inventory", nil, printInventory},
	{"plan", func(f *flags) ([]experiment.Spec, error) {
		if !f.sim {
			return nil, nil
		}
		return experiment.Table(f.spec(f.app), false), nil
	}, plan},
	{"explain", nil, explain},
	{"trace", func(f *flags) ([]experiment.Spec, error) {
		s := f.spec(f.app)
		s.Trace = &trace.Options{SampleEvery: max(f.sample, 1)}
		return experiment.Table(s, f.ext), nil
	}, traceReport},
	{"sweep-latency", vary([]time.Duration{25, 50, 100, 200, 400}, func(s *experiment.Spec, ms time.Duration) {
		// Any server-to-server path of the star crosses both router legs.
		leg := simnet.LinkClass{OneWay: ms * time.Millisecond / 2}
		s.Topology = simnet.HierarchySpec{Backbone: leg, Metro: leg}
	}), printSweep("WAN-latency sweep", "wan-one-way-ms", func(s experiment.Spec) float64 {
		return float64(2*s.Topology.Backbone.OneWay) / float64(time.Millisecond)
	})},
	{"sweep-load", vary([]float64{0.5, 1, 2, 4, 8}, func(s *experiment.Spec, load float64) { s.Load = load }),
		printSweep("Load sweep", "offered-req-s", func(s experiment.Spec) float64 { return 30 * s.Load })},
	{"scale", nil, scale},
	{"topo", topoSpecs, printTopo},
	{"all", func(f *flags) ([]experiment.Spec, error) {
		return append(experiment.Table(f.spec(experiment.PetStore), f.ext), experiment.Table(f.spec(experiment.RUBiS), f.ext)...), nil
	}, printAll},
}

// usage lists the subcommands as the package doc's usage line does.
func usage() string {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	return strings.Join(names, "|")
}

func lookup(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

func run(args []string) error {
	f, cmds, err := parseFlags(args)
	if err != nil {
		return err
	}
	for _, name := range cmds {
		c := lookup(name)
		if c == nil {
			return fmt.Errorf("unknown command %q (want %s)", name, usage())
		}
		var rs []*experiment.Result
		if c.specs != nil {
			specs, err := c.specs(f)
			if err != nil {
				return err
			}
			start := time.Now()
			if rs, err = experiment.RunAll(specs); err != nil {
				return err
			}
			f.wall = time.Since(start)
		}
		if err := c.print(os.Stdout, f, rs); err != nil {
			return err
		}
	}
	return nil
}

// parseFlags parses the command line into flags and the subcommands to run
// (all when none is named).
func parseFlags(args []string) (*flags, []string, error) {
	var f flags
	fs := flag.NewFlagSet("wadeploy", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed (same seed => identical tables)")
	warmup := fs.Duration("warmup", 5*time.Minute, "virtual warm-up discarded from statistics")
	duration := fs.Duration("duration", time.Hour, "measured virtual duration per configuration")
	quick := fs.Bool("quick", false, "short run (30s warm-up, 4min measurement)")
	parallel := fs.Int("parallel", 0, "concurrent runs per table/sweep (0 = one per CPU, 1 = sequential)")
	fs.BoolVar(&f.diag, "diag", false, "print per-run diagnostics (CPU, RMI, JMS counters)")
	fs.BoolVar(&f.p95, "p95", false, "also print 95th-percentile tables")
	fs.BoolVar(&f.ext, "ext", false, "append extension configurations (DB replication) to table runs")
	fs.StringVar(&f.csv, "csv", "", "also write table results as CSV to this file")
	fs.StringVar(&f.metricsOut, "metrics-out", "", "write per-configuration metrics registry snapshots as JSON to this file")
	metricsTick := fs.Duration("metrics-tick", time.Minute, "virtual-time sampling interval for counter/gauge series (with -metrics-out)")
	fs.BoolVar(&f.json, "json", false, "machine-readable output (explain: one JSON span per line; plan: full advisor document)")
	fs.BoolVar(&f.sim, "sim", false, "with plan: also simulate the five paper configurations and print prediction error")
	appFlag := fs.String("app", "petstore", "application for sweeps: petstore|rubis")
	cfgFlag := fs.String("config", "async-updates", "configuration for sweeps: centralized|remote-facade|stateful-caching|query-caching|async-updates")
	faultsFlag := fs.String("faults", "", "fault schedule: 'canonical' or a JSON schedule file; arms the WAN-outage script and the resilience policies on every run")
	fs.IntVar(&f.sessions, "sessions", 100000, "scale: concurrent client sessions")
	fs.IntVar(&f.shards, "shards", 8, "scale: engine lanes (results depend on the shard count, never the worker count)")
	fs.Uint64Var(&f.sample, "sample", 16, "trace/scale -trace: sample 1 in N page views (pure function of the trace ID)")
	fs.BoolVar(&f.trace, "trace", false, "scale: arm the flight recorder and critical-path blame aggregation")
	fs.StringVar(&f.observed, "observed", "", "plan: a `wadeploy trace -json` export; rank placements on its observed page mix (-config selects the run)")
	fs.DurationVar(&f.epoch, "epoch", 30*time.Second, "adapt: controller observation epoch (virtual time)")
	fs.StringVar(&f.edges, "edges", "2,8,32,128", "topo: comma-separated edge counts to sweep")
	fs.IntVar(&f.partitions, "partitions", 8, "topo: hash partitions for the hot entities (0 = full replication)")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	opts := experiment.RunOptions{Seed: *seed, Warmup: *warmup, Duration: *duration}
	if *quick {
		opts = experiment.QuickRunOptions()
		opts.Seed = *seed
	}
	opts.Parallelism = *parallel
	f.run.RunOptions = opts
	if f.metricsOut != "" {
		f.run.MetricsTick = *metricsTick
	}
	var err error
	if *faultsFlag != "" {
		if f.run.Schedule, err = loadSchedule(*faultsFlag, opts); err != nil {
			return nil, nil, err
		}
	}
	if f.app, err = parseApp(*appFlag); err != nil {
		return nil, nil, err
	}
	if f.cfg, err = parseConfig(*cfgFlag); err != nil {
		return nil, nil, err
	}
	if err := f.spec(f.app).Validate(); err != nil {
		return nil, nil, err
	}
	cmds := fs.Args()
	if len(cmds) == 0 {
		cmds = []string{"all"}
	}
	return &f, cmds, nil
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

// parseApp resolves the -app flag.
func parseApp(app string) (experiment.AppID, error) {
	switch a := experiment.AppID(app); a {
	case experiment.PetStore, experiment.RUBiS:
		return a, nil
	}
	return "", fmt.Errorf("unknown app %q (want petstore|rubis)", app)
}

// parseConfig resolves the -config flag: a paper or extension configuration.
func parseConfig(cfg string) (core.Policy, error) {
	for _, c := range append(core.Configs[:len(core.Configs):len(core.Configs)], core.ExtensionConfigs...) {
		if c.String() == cfg {
			return c, nil
		}
	}
	return core.Policy{}, fmt.Errorf("unknown config %q", cfg)
}

// tableOf is the specs of app's table, with -ext's rows when ext honours
// the flag (the figures do not).
func tableOf(app experiment.AppID, ext bool) func(*flags) ([]experiment.Spec, error) {
	return func(f *flags) ([]experiment.Spec, error) { return experiment.Table(f.spec(app), ext && f.ext), nil }
}

func printTable(w io.Writer, f *flags, rs []*experiment.Result) error {
	fmt.Fprint(w, experiment.FormatTable(rs))
	if f.p95 {
		fmt.Fprintln(w)
		fmt.Fprint(w, experiment.FormatTableP95(rs))
	}
	diagnostics(w, f, rs)
	if f.csv != "" {
		var csv bytes.Buffer
		if err := experiment.WriteCSV(&csv, rs); err != nil {
			return err
		}
		if err := os.WriteFile(f.csv, csv.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return writeMetrics(f.metricsOut, rs)
}

func printFigure(w io.Writer, f *flags, rs []*experiment.Result) error {
	fmt.Fprint(w, experiment.FormatFigure(rs))
	diagnostics(w, f, rs)
	return nil
}

// diagnostics prints the -diag block after a blank line.
func diagnostics(w io.Writer, f *flags, rs []*experiment.Result) {
	if f.diag {
		fmt.Fprintln(w)
		fmt.Fprint(w, experiment.FormatDiagnostics(rs))
	}
}

func printMetrics(w io.Writer, f *flags, rs []*experiment.Result) error {
	fmt.Fprintf(w, "Per-configuration metrics: %s\n", f.app)
	fmt.Fprint(w, experiment.FormatMetricsComparison(rs))
	return writeMetrics(f.metricsOut, rs)
}

// faultSpecs is the availability experiment: every paper configuration
// under the fault schedule (the canonical outage without -faults), which
// arms the resilience machinery.
func faultSpecs(f *flags) ([]experiment.Spec, error) {
	s := f.spec(f.app)
	if s.Schedule == nil {
		s.Schedule = faults.Canonical(s.Warmup, s.Duration)
	}
	return experiment.Table(s, false), nil
}

// printFaults prints the Table-6-style success-rate table for the
// partitioned edge's clients.
func printFaults(w io.Writer, f *flags, rs []*experiment.Result) error {
	name := rs[0].Spec.Schedule.Name
	if name == "" {
		name = "canonical-outage"
	}
	fmt.Fprintf(w, "Availability experiment: %s under schedule %q\n", f.app, name)
	fmt.Fprint(w, experiment.FormatAvailability(rs))
	diagnostics(w, f, rs)
	return writeMetrics(f.metricsOut, rs)
}

// vary is a sweep's specs: -app under -config once per value, set applied.
func vary[T any](values []T, set func(*experiment.Spec, T)) func(*flags) ([]experiment.Spec, error) {
	return func(f *flags) ([]experiment.Spec, error) {
		specs := make([]experiment.Spec, len(values))
		for i, v := range values {
			specs[i] = f.spec(f.app)
			set(&specs[i], v)
		}
		return specs, nil
	}
}

// printSweep prints a sweep under its title, x of each spec against the
// session means.
func printSweep(title, xLabel string, x func(experiment.Spec) float64) func(io.Writer, *flags, []*experiment.Result) error {
	return func(w io.Writer, f *flags, rs []*experiment.Result) error {
		fmt.Fprintf(w, "%s: %s / %s\n", title, f.app, f.cfg.Title())
		fmt.Fprint(w, experiment.FormatSweep(xLabel, x, rs))
		return nil
	}
}

// topoSpecs is the planet-scale topology sweep: for each -edges count, an
// N-edge hierarchy with the paper's total offered load spread over the
// edges, with the hot entities hash-partitioned across the PoPs when
// -partitions > 0.
func topoSpecs(f *flags) ([]experiment.Spec, error) {
	if f.partitions < 0 {
		return nil, fmt.Errorf("-partitions: must be >= 0, got %d", f.partitions)
	}
	edges, err := parseEdgeCounts(f.edges)
	if err != nil {
		return nil, err
	}
	base := f.spec(f.app)
	if f.partitions > 0 {
		base.Policy.Partition = &container.PartitionSpec{Scheme: container.HashPartition, Partitions: f.partitions}
	}
	specs := make([]experiment.Spec, len(edges))
	for i, n := range edges {
		specs[i] = base
		specs[i].Topology.Edges = n
	}
	return specs, nil
}

// parseEdgeCounts parses the -edges flag: a comma-separated list of edge
// counts, e.g. "2,8,32,128".
func parseEdgeCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-edges: bad edge count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-edges: no edge counts")
	}
	return out, nil
}

// printTopo prints the scaling table. It depends only on the seed, the
// sweep parameters and the durations — never on -parallel; wall clock goes
// to stderr.
func printTopo(w io.Writer, f *flags, rs []*experiment.Result) error {
	fmt.Fprintf(w, "Topology sweep: %s / %s, seed %d, %v warm-up + %v measured\n",
		f.app, f.cfg.Title(), f.run.Seed, f.run.Warmup, f.run.Duration)
	fmt.Fprint(w, experiment.FormatTopo(rs))
	fmt.Fprintf(os.Stderr, "topo: wall %.2fs for %d points\n", f.wall.Seconds(), len(rs))
	return nil
}

// printAll prints each application's table, figure and, with -p95 and
// -diag, its tail and diagnostics blocks.
func printAll(w io.Writer, f *flags, rs []*experiment.Result) error {
	for len(rs) > 0 {
		n := 1
		for n < len(rs) && rs[n].Spec.App == rs[0].Spec.App {
			n++
		}
		app := rs[:n]
		rs = rs[n:]
		fmt.Fprint(w, experiment.FormatTable(app))
		fmt.Fprintln(w)
		if f.p95 {
			fmt.Fprint(w, experiment.FormatTableP95(app))
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, experiment.FormatFigure(app))
		fmt.Fprintln(w)
		if f.diag {
			fmt.Fprint(w, experiment.FormatDiagnostics(app))
			fmt.Fprintln(w)
		}
	}
	return nil
}

// scale runs the streaming workload engine at -sessions concurrent clients.
// The stdout block is deterministic in (seed, sessions, shards, durations)
// and independent of -parallel, so CI diffs it across worker counts;
// wall-clock throughput goes to stderr. With -trace the flight recorder and
// blame aggregation run alongside: the trace block (sampled/dropped counts
// plus per-page cause blame) is part of the deterministic stdout.
func scale(w io.Writer, f *flags, _ []*experiment.Result) error {
	opts := f.run.RunOptions
	cfg := workload.StreamConfig{
		Seed:     opts.Seed,
		Classes:  petstore.StreamWorkload(f.sessions),
		Warmup:   opts.Warmup,
		Duration: opts.Duration,
		Shards:   f.shards,
		Workers:  opts.Parallelism, // <1 falls back to one worker per shard
	}
	sample := max(f.sample, 1)
	if f.trace {
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
	fmt.Fprintf(w, "Scale run: %d clients, %d shards, seed %d, %v warm-up + %v measured\n",
		f.sessions, f.shards, opts.Seed, opts.Warmup, opts.Duration)
	fmt.Fprintf(w, "events=%d pages=%d sessions=%d errors=%d\n",
		res.Events, res.Pages, res.Sessions, res.Stats.Errors())
	fmt.Fprint(w, res.Stats)
	if res.Blame != nil {
		fmt.Fprintf(w, "trace: 1 in %d sampled=%d evicted=%d recorded=%d\n",
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
			fmt.Fprintf(w, "blame %-8s %-14s %-6s views=%-8d mean=%-8v svc=%v wan=%v\n",
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

// writeMetrics dumps every run's registry snapshot to path (nothing when
// path is empty). Snapshots are sorted by instrument name and runs keep
// table order, so the same seed produces a byte-identical file regardless of
// -parallel.
func writeMetrics(path string, rs []*experiment.Result) error {
	if path == "" {
		return nil
	}
	s := rs[0].Spec
	doc := metricsFile{App: s.App, Seed: s.Seed, TickNs: int64(s.MetricsTick)}
	for _, r := range rs {
		doc.Runs = append(doc.Runs, metricsRun{Config: r.Spec.Policy.String(), Metrics: r.Metrics})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printInventory(w io.Writer, _ *flags, _ []*experiment.Result) error {
	fmt.Fprintln(w, "Table 1. EJBs in Java Pet Store.")
	fmt.Fprintf(w, "%-26s %-18s %s\n", "EJB Name", "Kind", "Description")
	for _, e := range petstore.ComponentInventory() {
		kind := e.Kind.String()
		if e.Kind == container.Entity {
			kind = "entity"
		}
		fmt.Fprintf(w, "%-26s %-18s %s\n", e.Name, kind, e.Desc)
	}
	return nil
}
