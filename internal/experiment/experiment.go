// Package experiment regenerates the paper's evaluation: Tables 6 and 7
// (per-page average response times for five configurations of Java Pet Store
// and RUBiS, split by client locality) and Figures 7 and 8 (per-session
// average response times). An experiment is a Spec; Run executes one and
// RunAll a list. Runs are deterministic given a seed: the same seed produces
// byte-identical tables.
package experiment

import (
	"fmt"
	"time"

	"wadeploy/internal/container"
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

// RunOptions are the measurement settings of a run: its seed and window, and
// how many runs RunAll may execute at once.
type RunOptions struct {
	Seed     int64
	Warmup   time.Duration
	Duration time.Duration

	// Parallelism bounds how many independent runs RunAll may execute
	// concurrently: 0 (the default) means one worker per CPU (GOMAXPROCS),
	// 1 forces the sequential path, and values above the number of runs are
	// clamped. Every run owns its environment, seed and database, so any
	// setting produces byte-identical results.
	Parallelism int
}

// Spec is one experiment: an application deployed under a policy on a
// topology, driven at a load for the measurement window, with what is armed
// beside the workload. Specs are comparable values; a table, a sweep or a
// set of arms is a []Spec that varies one field, run by RunAll.
type Spec struct {
	App    AppID
	Policy core.Policy
	// Topology is the simulated network; the zero spec is the paper's star.
	Topology simnet.HierarchySpec
	// Load scales the paper's 30 req/s client population; 0 is the paper's.
	Load float64
	// Label names an arm of a set of runs ("sync", "adaptive").
	Label string

	// Schedule, when non-nil, arms a scripted fault schedule on the run's
	// network (link flaps, partitions, latency/loss degradation, node
	// crashes) before the workload starts, and the WAN-degradation machinery
	// (core.Options.Resilience: RMI retries/breakers, JMS redelivery,
	// serve-stale replicas) on the deployment under test. Replay is
	// deterministic: the fault RNG derives from Seed on a separate stream.
	// Result.Observed carries what the partitioned edge's clients saw.
	Schedule *faults.Schedule

	// Propagation, when non-nil, replaces every replica's method of update
	// on the deployment under test (core.Options.Propagation). Nil keeps
	// each descriptor's own and byte-identical output.
	Propagation *container.Propagation

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

	// Adaptive, when non-nil, deploys the remote-façade configuration with
	// the policy's replica bundle wired onto no server (the app's Wire), and
	// starts the online re-placement controller with these options,
	// extending the bundle edge by edge. Result.Adapt carries the adaptation
	// report.
	Adaptive *controller.Options

	RunOptions
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

// Result is one Spec's measured row of Table 6/7 plus diagnostics.
type Result struct {
	Spec  Spec
	Cells []PageCell

	// Session means by (pattern, locality): the Figure 7/8 bars.
	SessionMeans map[string]map[bool]time.Duration

	Samples int
	Errors  int

	// Diagnostics.
	MainCPUUtil float64
	EdgeCPUUtil float64

	// Hubs and ReplicaEntries are what only the testbed knows: the
	// topology's hub count, and the entity state cached across every edge
	// replica at the end of the run (the footprint partitioning shrinks).
	Hubs           int
	ReplicaEntries int64

	// Metrics is the run's full registry snapshot, taken after the workload
	// finishes (deterministic: same seed, same snapshot). It is the one book
	// of the run's counts.
	Metrics *metrics.Snapshot

	// Trace carries the causal-tracing outputs when Spec.Trace was set.
	Trace *TraceReport

	// Adapt is the online re-placement controller's report when
	// Spec.Adaptive was set.
	Adapt *controller.Report

	// Observed is what the scored client node saw when Spec.Schedule was
	// set.
	Observed *Observed
}

// TraceReport is one run's tracing harvest: the blame aggregates over every
// sampled page view and the flight recorder's surviving span trees.
type TraceReport struct {
	Blame   *trace.Aggregator
	Traces  []*trace.Trace
	Sampled int64 // traces recorded (post-sampling)
	Dropped int64 // flight-recorder evictions
}

// Mean returns the (local or remote) mean for (pattern, page); 0 if absent.
func (r *Result) Mean(pattern, page string, local bool) time.Duration {
	for _, c := range r.Cells {
		if c.Pattern != pattern || c.Page != page {
			continue
		}
		if local {
			return c.Local
		}
		return c.Remote
	}
	return 0
}

// application is a deployed app as the runner sees it; *petstore.App and
// *rubis.App both are one.
type application interface {
	Workload(scale float64) []workload.Group
	Wiring() *core.Wiring
	Wire(p core.Policy, on ...*container.Server) (*core.Wiring, error)
}

// appDef is everything the runner needs to know about one application under
// study.
type appDef struct {
	options  func() core.Options                                      // substrate calibration
	deploy   func(*core.Deployment, core.Policy) (application, error) // the app's Deploy
	model    func() *planner.Model                                    // what the controller re-plans with
	layout   *planner.Layout                                          // the component list, which says what the app can deploy
	patterns []string                                                 // usage patterns: browser, then writer
	columns  []column                                                 // the table's columns, in the paper's order
}

// column is one (pattern, page) column of Table 6/7.
type column struct{ Pattern, Page string }

// columns lays out a table the way the paper does: the browser session's
// pages in the order of their weights table, then the writer session's
// fixed sequence.
func columns(browser string, browse []struct {
	Page   string
	Weight int
}, writer string, write []string) []column {
	var cols []column
	for _, p := range browse {
		cols = append(cols, column{browser, p.Page})
	}
	for _, p := range write {
		cols = append(cols, column{writer, p})
	}
	return cols
}

var apps = map[AppID]*appDef{
	PetStore: {
		options: core.DefaultOptions,
		deploy: func(d *core.Deployment, p core.Policy) (application, error) {
			return petstore.Deploy(d, p)
		},
		model:    petstore.PlannerModel,
		layout:   petstore.Layout(),
		patterns: []string{petstore.PatternBrowser, petstore.PatternBuyer},
		columns:  columns(petstore.PatternBrowser, petstore.BrowserPages, petstore.PatternBuyer, petstore.BuyerPages),
	},
	RUBiS: {
		options: rubis.DeployOptions,
		deploy: func(d *core.Deployment, p core.Policy) (application, error) {
			return rubis.Deploy(d, p)
		},
		model:    rubis.PlannerModel,
		layout:   rubis.Layout(),
		patterns: []string{rubis.PatternBrowser, rubis.PatternBidder},
		columns:  columns(rubis.PatternBrowser, rubis.BrowserPages, rubis.PatternBidder, rubis.BidderPages),
	},
}

// PlannerModel is app's deployment-advisor model: what `wadeploy plan` ranks
// and an adaptive run's controller re-plans with.
func PlannerModel(app AppID) *planner.Model { return apps[app].model() }

// Overall is the run's value of the advisor's objective (planner.Overall)
// over a model's client classes.
func (r *Result) Overall(classes []planner.Class) time.Duration {
	per := make([]planner.ClassMean, len(classes))
	for i, cl := range classes {
		per[i] = planner.ClassMean{Class: cl, Mean: r.SessionMeans[cl.Pattern][cl.Local]}
	}
	return planner.Overall(per)
}

// Testbed is one application deployed on its simulated network and not yet
// driven: what every run and `wadeploy explain` starts from.
type Testbed struct {
	Env *sim.Env
	// Groups is the client population: the local group, then one remote
	// group per edge.
	Groups []workload.Group

	spec Spec
	d    *core.Deployment
	h    *simnet.Hierarchy
	inst application
	ctrl *controller.Controller
}

// Validate rejects a spec no run can start from, before any run starts: an
// unknown app, a negative load or edge count, or a policy the app's layout
// cannot deploy.
func (s Spec) Validate() error {
	if apps[s.App] == nil {
		return fmt.Errorf("experiment: unknown app %q", s.App)
	}
	if s.Load < 0 || s.Topology.Edges < 0 {
		return fmt.Errorf("experiment: negative load %v or edge count %d", s.Load, s.Topology.Edges)
	}
	if err := apps[s.App].layout.Check(s.Policy); err != nil {
		return fmt.Errorf("experiment: %s: %w", s.App, err)
	}
	return nil
}

// window is the scored interval of a faulted run: the schedule's outage
// window, or the whole measured duration when it declares none.
func (s Spec) window() [2]time.Duration {
	if w := s.Schedule.Window; w != [2]time.Duration{} {
		return w
	}
	return [2]time.Duration{s.Warmup, s.Warmup + s.Duration}
}

// Deploy builds the spec's testbed: environment, tracer, topology,
// substrate, application, the re-placement controller of an adaptive run,
// and the client groups at the spec's load.
func Deploy(s Spec) (*Testbed, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	def := apps[s.App]
	env := sim.NewEnv(s.Seed)
	if s.Trace != nil {
		trace.New(env, *s.Trace).Install(env)
	}
	copts := def.options()
	copts.Resilience = s.Schedule != nil
	copts.Propagation = s.Propagation
	d, h, err := core.NewHierarchicalDeployment(env, copts, s.Topology)
	if err != nil {
		return nil, err
	}
	// An adaptive run starts from the remote façade and hands the policy's
	// bundle, wired onto no server, to the re-placement controller.
	p := s.Policy
	if s.Adaptive != nil {
		p = core.RemoteFacade
	}
	inst, err := def.deploy(d, p)
	if err != nil {
		return nil, err
	}
	var ctrl *controller.Controller
	if s.Adaptive != nil {
		w, err := inst.Wire(s.Policy)
		if err == nil {
			ctrl, err = controller.Start(controller.Config{
				Deployment: d,
				Wiring:     w,
				Model:      def.model(),
				Seed:       s.Seed,
				Options:    *s.Adaptive,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("experiment: adaptive %s: %w", s.Policy, err)
		}
	}
	load := s.Load
	if load == 0 {
		load = 1
	}
	return &Testbed{Env: env, Groups: inst.Workload(load), spec: s, d: d, h: h, inst: inst, ctrl: ctrl}, nil
}

// Run executes one experiment: one deploy, one measurement window, one
// harvest.
func Run(s Spec) (*Result, error) {
	tb, err := Deploy(s)
	if err != nil {
		return nil, err
	}
	return tb.drive()
}

// RunAll runs every spec, at most specs[0].Parallelism at a time, and
// returns the results in spec order. Every run owns its environment and
// seed, so the results are byte-identical at any parallelism. Every spec is
// validated before the first run starts.
func RunAll(specs []Spec) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	out := make([]*Result, len(specs))
	err := forEachParallel(specs[0].Parallelism, len(specs), func(i int) (err error) {
		out[i], err = Run(specs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table returns the specs of a table run, one per configuration of the
// paper (core.Configs) on base, plus with ext the extension configurations
// the application can deploy.
func Table(base Spec, ext bool) []Spec {
	configs := core.Configs
	for _, p := range core.ExtensionConfigs {
		if ext && (Spec{App: base.App, Policy: p}).Validate() == nil {
			configs = append(configs[:len(configs):len(configs)], p)
		}
	}
	specs := make([]Spec, len(configs))
	for i, cfg := range configs {
		specs[i] = base
		specs[i].Policy = cfg
	}
	return specs
}

// RunTable runs all five configurations for an application: the full
// Table 6 (PetStore) or Table 7 (RUBiS).
func RunTable(app AppID, opts RunOptions) ([]*Result, error) {
	return RunAll(Table(Spec{App: app, RunOptions: opts}, false))
}

// drive runs the testbed's client groups for Warmup+Duration and collects
// the table row.
func (tb *Testbed) drive() (*Result, error) {
	d, s := tb.d, tb.spec
	var obs *observer
	if s.Schedule != nil {
		if err := faults.Arm(d.Net, s.Schedule, s.Seed); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		obs = newObserver(s.window())
	}
	reg := d.Env.Metrics()
	if s.MetricsTick > 0 {
		var tick func()
		tick = func() {
			reg.Sample()
			d.Env.After(s.MetricsTick, tick)
		}
		d.Env.After(s.MetricsTick, tick)
	}
	cfg := workload.Config{Env: d.Env, Groups: tb.Groups, Warmup: s.Warmup, Duration: s.Duration}
	if obs != nil {
		cfg.Observer = obs.observe
	}
	stats, err := workload.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s/%s: %w", s.App, s.Policy, err)
	}
	def := apps[s.App]
	res := &Result{
		Spec:         s,
		SessionMeans: make(map[string]map[bool]time.Duration, len(def.patterns)),
		Samples:      stats.TotalSamples(),
		Errors:       stats.Errors(),
		Hubs:         len(tb.h.HubNames),
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
	if wiring := tb.inst.Wiring(); wiring != nil {
		for _, e := range d.Edges {
			for _, ro := range wiring.Replicas[e.Name()] {
				res.ReplicaEntries += int64(ro.Cached())
			}
		}
	}
	res.Metrics = reg.Snapshot()
	if tb.ctrl != nil {
		res.Adapt = tb.ctrl.Report()
	}
	if obs != nil {
		res.Observed = obs.result()
	}
	return res, nil
}
