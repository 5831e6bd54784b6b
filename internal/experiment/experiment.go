// Package experiment regenerates the paper's evaluation: Tables 6 and 7
// (per-page average response times for five configurations of Java Pet Store
// and RUBiS, split by client locality) and Figures 7 and 8 (per-session
// average response times). Runs are deterministic given a seed: the same
// seed produces byte-identical tables.
package experiment

import (
	"fmt"
	"time"

	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/faults"
	"wadeploy/internal/metrics"
	"wadeploy/internal/petstore"
	"wadeploy/internal/planner"
	"wadeploy/internal/rubis"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/trace"
	"wadeploy/internal/workload"
)

// AppID selects the application under test.
type AppID string

// The two applications of the study.
const (
	PetStore AppID = "petstore"
	RUBiS    AppID = "rubis"
)

// RunOptions controls one experiment run.
type RunOptions struct {
	Seed     int64
	Warmup   time.Duration
	Duration time.Duration

	// Schedule, when non-nil, arms a scripted fault schedule on the run's
	// network (link flaps, partitions, latency/loss degradation, node
	// crashes) before the workload starts. Replay is deterministic: the
	// fault RNG derives from Seed on a separate stream.
	Schedule *faults.Schedule

	// Resilience enables the WAN-degradation machinery (RMI
	// retries/breakers, JMS redelivery, serve-stale replicas) on the
	// deployment under test. Off keeps strict semantics and byte-identical
	// output.
	Resilience bool

	// Replication, when non-nil, arms the delta-replication machinery
	// (deltas-by-default, batched/coalesced pushes, bounded-staleness
	// leases, a swept update mode) on the deployment under test.
	// Nil keeps the paper's propagation path and byte-identical output.
	Replication *core.ReplicationOptions

	// Observer, when non-nil, sees every completed request (warm-up and
	// failures included) — the hook behind availability scoring.
	Observer workload.Observer

	// Parallelism bounds how many independent runs a table or sweep may
	// execute concurrently: 0 (the default) means one worker per CPU
	// (GOMAXPROCS), 1 forces the sequential path, and values above the
	// number of runs are clamped. Every run owns its environment, seed and
	// database, so any setting produces byte-identical tables.
	Parallelism int

	// MetricsTick, when positive, samples every counter and gauge into its
	// time series on this virtual-time interval. Sampling is armed as a raw
	// timer callback (no process, no RNG draw), so enabling it does not
	// perturb the workload schedule.
	MetricsTick time.Duration

	// Trace, when non-nil, installs a causal tracer on the run's environment
	// before the deployment is built: every substrate records spans for the
	// sampled page requests and Result.Trace carries the blame aggregates
	// plus the flight recorder's surviving span trees. Tracing draws no
	// randomness and adds no delays, so enabling it leaves every table and
	// figure byte-identical.
	Trace *trace.Options

	// Adaptive, when non-nil, deploys the policy deferred
	// (core.Options.Deferred) and starts the online re-placement controller
	// with these options, extending toward the policy's patterns.
	// Result.Adapt carries the adaptation report.
	Adaptive *controller.Options
}

// DefaultRunOptions mirrors the paper's methodology (each test ran for about
// an hour preceded by several minutes of warm-up); the discrete-event
// engine makes the full hour cheap.
func DefaultRunOptions() RunOptions {
	return RunOptions{Seed: 1, Warmup: 5 * time.Minute, Duration: time.Hour}
}

// QuickRunOptions is a shortened run for tests and smoke checks.
func QuickRunOptions() RunOptions {
	return RunOptions{Seed: 1, Warmup: 30 * time.Second, Duration: 4 * time.Minute}
}

// PageCell is one table cell pair: local and remote mean response times for
// a page under a usage pattern.
type PageCell struct {
	Pattern string
	Page    string
	Local   time.Duration
	Remote  time.Duration

	// 95th-percentile response times, for tail-latency reporting.
	LocalP95  time.Duration
	RemoteP95 time.Duration
}

// Result is one configuration's measured row of Table 6/7 plus diagnostics.
type Result struct {
	App    AppID
	Config core.Policy
	Cells  []PageCell

	// Session means by (pattern, locality): the Figure 7/8 bars.
	SessionMeans map[string]map[bool]time.Duration

	Samples int
	Errors  int

	// Diagnostics.
	RemoteCalls  int64 // wide-area + local RMI invocations classified remote
	MainCPUUtil  float64
	EdgeCPUUtil  float64
	JMSPublished int64
	JMSDelivered int64

	// Metrics is the run's full registry snapshot, taken after the workload
	// finishes (deterministic: same seed, same snapshot).
	Metrics *metrics.Snapshot

	// Trace carries the causal-tracing outputs when RunOptions.Trace was set.
	Trace *TraceReport

	// Adapt is the online re-placement controller's report when
	// RunOptions.Adaptive was set.
	Adapt *controller.Report
}

// TraceReport is one run's tracing harvest: the blame aggregates over every
// sampled page view and the flight recorder's surviving span trees.
type TraceReport struct {
	Blame   *trace.Aggregator
	Traces  []*trace.Trace
	Sampled int64 // traces recorded (post-sampling)
	Dropped int64 // flight-recorder evictions
}

// Profile renders the report's aggregates in the JSON export shape.
func (tr *TraceReport) Profile() *trace.Profile { return tr.Blame.Profile() }

// Cell returns the cell for (pattern, page), or nil.
func (r *Result) Cell(pattern, page string) *PageCell {
	for i := range r.Cells {
		if r.Cells[i].Pattern == pattern && r.Cells[i].Page == page {
			return &r.Cells[i]
		}
	}
	return nil
}

// Mean returns the (local or remote) mean for (pattern, page); 0 if absent.
func (r *Result) Mean(pattern, page string, local bool) time.Duration {
	c := r.Cell(pattern, page)
	if c == nil {
		return 0
	}
	if local {
		return c.Local
	}
	return c.Remote
}

// PetStoreColumns is the paper's Table 6 column order.
var PetStoreColumns = []struct {
	Pattern string
	Page    string
}{
	{petstore.PatternBrowser, petstore.PageMain},
	{petstore.PatternBrowser, petstore.PageCategory},
	{petstore.PatternBrowser, petstore.PageProduct},
	{petstore.PatternBrowser, petstore.PageItem},
	{petstore.PatternBrowser, petstore.PageSearch},
	{petstore.PatternBuyer, petstore.PageMain},
	{petstore.PatternBuyer, petstore.PageSignin},
	{petstore.PatternBuyer, petstore.PageVerifySignin},
	{petstore.PatternBuyer, petstore.PageCart},
	{petstore.PatternBuyer, petstore.PageCheckout},
	{petstore.PatternBuyer, petstore.PagePlaceOrder},
	{petstore.PatternBuyer, petstore.PageBilling},
	{petstore.PatternBuyer, petstore.PageCommit},
	{petstore.PatternBuyer, petstore.PageSignout},
}

// RUBiSColumns is the paper's Table 7 column order.
var RUBiSColumns = []struct {
	Pattern string
	Page    string
}{
	{rubis.PatternBrowser, rubis.PageMain},
	{rubis.PatternBrowser, rubis.PageBrowse},
	{rubis.PatternBrowser, rubis.PageAllCategories},
	{rubis.PatternBrowser, rubis.PageAllRegions},
	{rubis.PatternBrowser, rubis.PageRegion},
	{rubis.PatternBrowser, rubis.PageCategory},
	{rubis.PatternBrowser, rubis.PageCatRegion},
	{rubis.PatternBrowser, rubis.PageItem},
	{rubis.PatternBrowser, rubis.PageBids},
	{rubis.PatternBrowser, rubis.PageUserInfo},
	{rubis.PatternBidder, rubis.PageMain},
	{rubis.PatternBidder, rubis.PagePutBidAuth},
	{rubis.PatternBidder, rubis.PagePutBidForm},
	{rubis.PatternBidder, rubis.PageStoreBid},
	{rubis.PatternBidder, rubis.PagePutCommentAuth},
	{rubis.PatternBidder, rubis.PagePutCommentForm},
	{rubis.PatternBidder, rubis.PageStoreComment},
}

// application is a deployed app as the runner sees it; *petstore.App and
// *rubis.App both are one.
type application interface {
	Workload(scale float64) []workload.Group
	Wiring() *core.Wiring
}

// appDef is everything the runner needs to know about one application under
// study.
type appDef struct {
	options  func() core.Options                                      // substrate calibration
	deploy   func(*core.Deployment, core.Policy) (application, error) // the app's Deploy
	model    func() *planner.Model                                    // what the controller re-plans with
	patterns []string                                                 // usage patterns: browser, then writer
	columns  []struct{ Pattern, Page string }
}

var apps = map[AppID]*appDef{
	PetStore: {
		options: core.DefaultOptions,
		deploy: func(d *core.Deployment, p core.Policy) (application, error) {
			return petstore.Deploy(d, p)
		},
		model:    petstore.PlannerModel,
		patterns: []string{petstore.PatternBrowser, petstore.PatternBuyer},
		columns:  PetStoreColumns,
	},
	RUBiS: {
		options: rubis.DeployOptions,
		deploy: func(d *core.Deployment, p core.Policy) (application, error) {
			return rubis.Deploy(d, p)
		},
		model:    rubis.PlannerModel,
		patterns: []string{rubis.PatternBrowser, rubis.PatternBidder},
		columns:  RUBiSColumns,
	},
}

// Testbed is one application deployed on its simulated network and not yet
// driven: what every run, sweep point and `wadeploy explain` starts from.
type Testbed struct {
	Env *sim.Env
	// Groups is the client population: the local group, then one remote
	// group per edge.
	Groups []workload.Group

	app  AppID
	cfg  core.Policy
	d    *core.Deployment
	h    *simnet.Hierarchy
	inst application
	ctrl *controller.Controller
}

// Deploy builds the paper's testbed with app deployed under cfg and the
// Section 3.3 client groups defined, honouring the deployment-side options
// (Seed, Trace, Resilience, Replication and Adaptive).
func Deploy(app AppID, cfg core.Policy, opts RunOptions) (*Testbed, error) {
	return deploy(app, cfg, opts, simnet.HierarchySpec{}, 1)
}

// deploy is the one set-up path: environment, tracer, topology (the zero spec
// is the paper's star), substrate, application, the re-placement controller
// of an adaptive run, and the client groups at scale times the paper's
// population.
func deploy(app AppID, cfg core.Policy, opts RunOptions, spec simnet.HierarchySpec, scale float64) (*Testbed, error) {
	def := apps[app]
	if def == nil {
		return nil, fmt.Errorf("experiment: unknown app %q", app)
	}
	env := sim.NewEnv(opts.Seed)
	if opts.Trace != nil {
		trace.New(env, *opts.Trace).Install(env)
	}
	copts := def.options()
	copts.Resilience = opts.Resilience
	copts.Replication = opts.Replication
	copts.Deferred = opts.Adaptive != nil
	d, h, err := core.NewHierarchicalDeployment(env, copts, spec)
	if err != nil {
		return nil, err
	}
	inst, err := def.deploy(d, cfg)
	if err != nil {
		return nil, err
	}
	var ctrl *controller.Controller
	if opts.Adaptive != nil {
		ctrl, err = controller.Start(controller.Config{
			Deployment: d,
			Wiring:     inst.Wiring(),
			Model:      def.model(),
			Seed:       opts.Seed,
			Options:    *opts.Adaptive,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: deferred %s: %w", cfg, err)
		}
	}
	return &Testbed{
		Env: env, Groups: inst.Workload(scale),
		app: app, cfg: cfg, d: d, h: h, inst: inst, ctrl: ctrl,
	}, nil
}

// Run executes one (application, policy) experiment on the paper's testbed.
func Run(app AppID, cfg core.Policy, opts RunOptions) (*Result, error) {
	r, _, err := run(app, cfg, opts, simnet.HierarchySpec{}, 1)
	return r, err
}

// run is the one experiment body behind Run and every sweep: deploy, then
// drive. The testbed is returned for callers that read more than the row.
func run(app AppID, cfg core.Policy, opts RunOptions, spec simnet.HierarchySpec, scale float64) (*Result, *Testbed, error) {
	tb, err := deploy(app, cfg, opts, spec, scale)
	if err != nil {
		return nil, nil, err
	}
	r, err := tb.drive(opts)
	return r, tb, err
}

// drive runs the testbed's client groups for opts.Warmup+opts.Duration and
// collects the table row.
func (tb *Testbed) drive(opts RunOptions) (*Result, error) {
	d := tb.d
	if opts.Schedule != nil {
		if err := faults.Arm(d.Net, opts.Schedule, opts.Seed); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
	}
	reg := d.Env.Metrics()
	if opts.MetricsTick > 0 {
		var tick func()
		tick = func() {
			reg.Sample()
			d.Env.After(opts.MetricsTick, tick)
		}
		d.Env.After(opts.MetricsTick, tick)
	}
	stats, err := workload.Run(workload.Config{
		Env:      d.Env,
		Groups:   tb.Groups,
		Warmup:   opts.Warmup,
		Duration: opts.Duration,
		Observer: opts.Observer,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: %s/%s: %w", tb.app, tb.cfg, err)
	}
	def := apps[tb.app]
	res := &Result{
		App:          tb.app,
		Config:       tb.cfg,
		SessionMeans: make(map[string]map[bool]time.Duration, len(def.patterns)),
		Samples:      stats.TotalSamples(),
		Errors:       stats.Errors(),
		RemoteCalls:  reg.CounterValue("rmi_remote_calls_total"),
		JMSPublished: reg.CounterValue("jms_published_total"),
		JMSDelivered: reg.CounterValue("jms_delivered_total"),
	}
	for _, c := range def.columns {
		cell := PageCell{
			Pattern: c.Pattern,
			Page:    c.Page,
			Local:   stats.Mean(workload.SeriesKey{Pattern: c.Pattern, Page: c.Page, Local: true}),
			Remote:  stats.Mean(workload.SeriesKey{Pattern: c.Pattern, Page: c.Page, Local: false}),
		}
		if s := stats.Series(workload.SeriesKey{Pattern: c.Pattern, Page: c.Page, Local: true}); s != nil {
			cell.LocalP95 = s.Percentile(95)
		}
		if s := stats.Series(workload.SeriesKey{Pattern: c.Pattern, Page: c.Page, Local: false}); s != nil {
			cell.RemoteP95 = s.Percentile(95)
		}
		res.Cells = append(res.Cells, cell)
	}
	for _, pat := range def.patterns {
		res.SessionMeans[pat] = map[bool]time.Duration{
			true:  stats.SessionMean(pat, true),
			false: stats.SessionMean(pat, false),
		}
	}
	if tr := trace.FromEnv(d.Env); tr != nil {
		dropped := reg.CounterValue("trace_dropped_total")
		res.Trace = &TraceReport{
			Blame:   tr.Aggregator(),
			Traces:  tr.Recorder().Traces(),
			Sampled: int64(tr.Recorder().Len()) + dropped,
			Dropped: dropped,
		}
	}
	mainNode := d.Net.Node(d.Main.Name())
	res.MainCPUUtil = mainNode.CPU.Utilization()
	if len(d.Edges) > 0 {
		edgeNode := d.Net.Node(d.Edges[0].Name())
		res.EdgeCPUUtil = edgeNode.CPU.Utilization()
	}
	res.Metrics = reg.Snapshot()
	if tb.ctrl != nil {
		res.Adapt = tb.ctrl.Report()
	}
	return res, nil
}

// RunTable runs all five configurations for an application: the full
// Table 6 (PetStore) or Table 7 (RUBiS).
func RunTable(app AppID, opts RunOptions) ([]*Result, error) {
	return runConfigs(app, opts, core.Configs)
}

// RunTableWithExtensions appends the extension configurations (currently
// DB replication, Pet Store only) to the paper's five rows.
func RunTableWithExtensions(app AppID, opts RunOptions) ([]*Result, error) {
	configs := append([]core.Policy(nil), core.Configs...)
	if app == PetStore {
		configs = append(configs, core.ExtensionConfigs...)
	}
	return runConfigs(app, opts, configs)
}

func runConfigs(app AppID, opts RunOptions, configs []core.Policy) ([]*Result, error) {
	out := make([]*Result, len(configs))
	err := forEachParallel(opts.Parallelism, len(configs), func(i int) error {
		r, err := Run(app, configs[i], opts)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FigureBar is one bar of Figure 7/8.
type FigureBar struct {
	Config  core.Policy
	Pattern string
	Local   bool
	Mean    time.Duration
}

// Figure derives the Figure 7/8 bars from a table run.
func Figure(results []*Result) []FigureBar {
	var bars []FigureBar
	if len(results) == 0 {
		return bars
	}
	for _, local := range []bool{true, false} {
		for _, pat := range apps[results[0].App].patterns {
			for _, r := range results {
				bars = append(bars, FigureBar{
					Config:  r.Config,
					Pattern: pat,
					Local:   local,
					Mean:    r.SessionMeans[pat][local],
				})
			}
		}
	}
	return bars
}
