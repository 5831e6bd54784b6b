package main

// adapter.go is the only file of the benchmark that calls into the program
// (TestOnlyAdapterImportsProgram pins it): every use of wadeploy/internal/...
// is here, so that when ROADMAP items 2-3 rename Deploy*/StreamWorkload the
// follow-up benchmark change is a one-file diff. The rest of the harness
// sees the program through round, roundOutput, probeDef and vspan.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/experiment"
	"wadeploy/internal/jms"
	"wadeploy/internal/metrics"
	"wadeploy/internal/petstore"
	"wadeploy/internal/rmi"
	"wadeploy/internal/rubis"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/trace"
	"wadeploy/internal/web"
	"wadeploy/internal/workload"
)

// ---------------------------------------------------------------- rounds --

// roundOptions is everything a round's input depends on.
type roundOptions struct {
	Seed    int64
	Size    roundSize
	Workers int        // scale-stream: OS goroutines running the 8 lanes
	Sink    *selfTimes // non-nil arms the program's causal tracer on every page
}

// seriesStat is one (pattern, page, locality) response-time series of
// workload.Stats, in virtual nanoseconds.
type seriesStat struct {
	Pattern string
	Page    string
	Local   bool
	Count   int64
	MeanNs  int64
	MinNs   int64
	MaxNs   int64
	P50Ns   int64
	P99Ns   int64
}

type histStat struct {
	Count int64
	SumNs int64
	P99Ns int64
}

// roundOutput is the simulated output and the exact counts of one round.
type roundOutput struct {
	Pages  uint64 // page requests completed, warm-up included
	Failed uint64 // of those, failed or refused
	Events uint64 // engine events dispatched

	Series   []seriesStat
	Counters map[string]int64 // registry counters and gauges, whole run
	Drive    map[string]int64 // counter deltas over the drive region only
	Hists    map[string]histStat

	WANBytes    int64 // bytes over wide-area links during the drive region
	Instruments int   // registered counters + gauges + histograms

	// Traced rounds only: critical-path blame of remote pages by cause.
	CauseNs      map[string]int64
	CauseTotalNs int64
}

// round is one prepared simulation: drive is exactly the call that advances
// it (the timed region), harvest reads its output afterwards.
type round struct {
	drive   func() error
	harvest func() (*roundOutput, error)
	// snapshot takes one full registry snapshot (the metrics.snapshot_ms
	// probe); nil when the workload has no run-wide registry.
	snapshot func()
}

func prepareRound(w *workloadDef, o roundOptions, hs *hostSpans) (*round, error) {
	if w.Name == "scale-stream" {
		return prepareStream(o, hs)
	}
	return prepareFullStack(w, o, hs)
}

func traceOptions(sink *selfTimes) *trace.Options {
	if sink == nil {
		return nil
	}
	var buf []vspan
	return &trace.Options{SampleEvery: 1, OnFinish: func(t *trace.Trace) {
		buf = buf[:0]
		for _, s := range t.Spans {
			buf = append(buf, vspan{Parent: int32(s.Parent), Layer: s.Layer, Async: s.Async, Start: int64(s.Start), End: int64(s.End)})
		}
		sink.add(buf)
	}}
}

func prepareFullStack(w *workloadDef, o roundOptions, hs *hostSpans) (*round, error) {
	endEnv := hs.open("setup.env", "core")
	env := sim.NewEnv(o.Seed)
	var tracer *trace.Tracer
	if topts := traceOptions(o.Sink); topts != nil {
		// Installed before the deployment is built, as experiment.Run does:
		// substrates pick the tracer up at construction time.
		tracer = trace.New(env, *topts)
		tracer.Install(env)
	}
	var d *core.Deployment
	var err error
	switch w.Name {
	case "petstore-centralized":
		d, err = core.NewPaperDeployment(env, core.DefaultOptions())
	case "rubis-async":
		d, err = core.NewPaperDeployment(env, rubis.DeployOptions())
	case "petstore-topo128":
		d, _, err = core.NewHierarchicalDeployment(env, core.DefaultOptions(), simnet.DefaultHierarchySpec(128))
	default:
		err = fmt.Errorf("no such workload %q", w.Name)
	}
	if err != nil {
		return nil, fmt.Errorf("setup.env: %w", err)
	}
	endEnv(int64(len(d.Servers())))

	endDeploy := hs.open("setup.deploy", "core")
	var groups []workload.Group
	switch w.Name {
	case "petstore-centralized":
		var a *petstore.App
		if a, err = petstore.Deploy(d, core.Centralized); err == nil {
			groups = petstore.PaperWorkload(a)
		}
	case "rubis-async":
		var a *rubis.App
		if a, err = rubis.Deploy(d, core.AsyncUpdates); err == nil {
			groups = rubis.PaperWorkload(a)
		}
	case "petstore-topo128":
		var a *petstore.App
		part := &container.PartitionSpec{Scheme: container.HashPartition, Partitions: 8}
		if a, err = petstore.DeployTopo(d, core.QueryCaching, petstore.TopoOptions{Partition: part}); err == nil {
			groups = petstore.TopoWorkload(a)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("setup.deploy: %w", err)
	}
	reg := env.Metrics()
	base := counterValues(reg.Snapshot())
	endDeploy(int64(len(groups)))

	var pages, failed uint64
	cfg := workload.Config{
		Env:      env,
		Groups:   groups,
		Warmup:   o.Size.Warmup,
		Duration: o.Size.Duration,
		// Stats drops warm-up samples; the observer sees every request.
		Observer: func(_ time.Duration, _ workload.Client, _ workload.SeriesKey, _ time.Duration, err error) {
			pages++
			if err != nil {
				failed++
			}
		},
	}
	var stats *workload.Stats
	r := &round{snapshot: func() { reg.Snapshot() }}
	r.drive = func() error {
		var err error
		stats, err = workload.Run(cfg)
		return err
	}
	r.harvest = func() (*roundOutput, error) {
		out := newRoundOutput(pages, failed, env.Dispatched(), stats)
		snap := reg.Snapshot()
		out.Instruments = len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
		const linkPrefix = `simnet_link_bytes_total{link="`
		for _, c := range snap.Counters {
			out.Counters[c.Name] = c.Value
			out.Drive[c.Name] = c.Value - base[c.Name]
			if link, ok := strings.CutPrefix(c.Name, linkPrefix); ok {
				a, b, _ := strings.Cut(strings.TrimSuffix(link, `"}`), ">")
				if d.Net.WideArea(a, b) {
					out.WANBytes += out.Drive[c.Name]
				}
			}
		}
		for _, g := range snap.Gauges {
			out.Counters[g.Name] = g.Value
		}
		for _, h := range snap.Histograms {
			out.Hists[h.Name] = histStat{Count: h.Count, SumNs: h.SumNs, P99Ns: h.P99Ns}
		}
		if tracer != nil {
			out.addBlame(tracer.Aggregator())
		}
		return out, nil
	}
	return r, nil
}

func prepareStream(o roundOptions, hs *hostSpans) (*round, error) {
	endEnv := hs.open("setup.env", "workload")
	cfg := workload.StreamConfig{
		Seed:     o.Seed,
		Classes:  petstore.StreamWorkload(o.Size.Clients),
		Warmup:   o.Size.Warmup,
		Duration: o.Size.Duration,
		Shards:   8,
		Workers:  o.Workers,
		Trace:    traceOptions(o.Sink),
	}
	endEnv(int64(len(cfg.Classes)))
	var res *workload.StreamResult
	r := &round{}
	r.drive = func() error {
		var err error
		res, err = workload.RunStream(cfg)
		return err
	}
	r.harvest = func() (*roundOutput, error) {
		// Stats counts failures after warm-up only; the stream request
		// model never fails, so that is all of them.
		out := newRoundOutput(res.Pages, uint64(res.Stats.Errors()), res.Events, res.Stats)
		if res.Blame != nil {
			out.addBlame(res.Blame)
		}
		return out, nil
	}
	return r, nil
}

func newRoundOutput(pages, failed, events uint64, stats *workload.Stats) *roundOutput {
	out := &roundOutput{
		Pages:    pages,
		Failed:   failed,
		Events:   events,
		Counters: make(map[string]int64),
		Drive:    make(map[string]int64),
		Hists:    make(map[string]histStat),
	}
	for _, k := range stats.Keys() {
		s := stats.Series(k)
		out.Series = append(out.Series, seriesStat{
			Pattern: k.Pattern, Page: k.Page, Local: k.Local,
			Count:  int64(s.Count()),
			MeanNs: int64(s.Mean()), MinNs: int64(s.Min()), MaxNs: int64(s.Max()),
			P50Ns: int64(s.Percentile(50)), P99Ns: int64(s.Percentile(99)),
		})
	}
	return out
}

func (out *roundOutput) addBlame(agg *trace.Aggregator) {
	out.CauseNs = make(map[string]int64)
	for _, e := range agg.Pages() {
		if e.Key.Local {
			continue
		}
		out.CauseTotalNs += int64(e.Agg.Total)
		for _, c := range []trace.Cause{trace.CauseService, trace.CauseWAN, trace.CauseQueue, trace.CauseRetry} {
			out.CauseNs[c.String()] += int64(e.Agg.ByCause[c])
		}
	}
}

func counterValues(s *metrics.Snapshot) map[string]int64 {
	m := make(map[string]int64, len(s.Counters))
	for _, c := range s.Counters {
		m[c.Name] = c.Value
	}
	return m
}

// runTablePages runs experiment.RunTable (Pet Store, all five configurations)
// at the given size and parallelism and returns the pages it measured.
func runTablePages(size roundSize, parallelism int) (int, error) {
	results, err := experiment.RunTable(experiment.PetStore, experiment.RunOptions{
		Seed: 1, Warmup: size.Warmup, Duration: size.Duration, Parallelism: parallelism,
	})
	if err != nil {
		return 0, err
	}
	pages := 0
	for _, r := range results {
		pages += r.Samples
	}
	return pages, nil
}

// ---------------------------------------------------------------- probes --

// probeRun is one prepared probe batch: run performs the calls and returns
// how many it made; events, when set, reads the engine events they cost.
type probeRun struct {
	run    func() (int64, error)
	events func() uint64
}

// probeDef times a batch of calls into one layer's exported functions.
// prepare builds a batch of about n calls outside the timed region.
type probeDef struct {
	Metric  string // per-layer metric the ns/op is reported as
	prepare func(n int) (*probeRun, error)
}

var probes = []probeDef{
	{"sim.host_ns_per_task_event", prepareTaskEvents},
	{"sim.host_ns_per_proc_switch", simProbe(probeProcs, 0, func(*sim.Env) (probeOp, error) {
		// Sleeps of 1..16 ms: like the real runs (14 events a page, 30 pages
		// a virtual second) this keeps an event or two in every 4 ms wheel
		// slot, so the probe prices the switch, not a scan over empty slots
		// or a heap of simultaneous wake-ups.
		return func(p *sim.Proc, i int) error {
			p.Sleep(time.Duration(1+i%16) * time.Millisecond)
			return nil
		}, nil
	})},
	{"sim.host_ns_per_resource_use", simProbe(probeProcs, 0, func(env *sim.Env) (probeOp, error) {
		res := sim.NewResource(env, 240) // uncontended, like the 24%-busy servers
		return func(p *sim.Proc, _ int) error { res.Use(p, time.Millisecond); return nil }, nil
	})},
	{"sim.host_ns_per_promise_roundtrip", simProbe(probeProcs, 0, func(env *sim.Env) (probeOp, error) {
		return func(p *sim.Proc, _ int) error {
			pr := sim.NewPromise[int](env)
			env.After(time.Millisecond, func() { pr.Resolve(1) })
			_, err := sim.Await(p, pr)
			return err
		}, nil
	})},
	{"simnet.host_ns_per_transfer_star", simProbe(probeProcs, 0, func(env *sim.Env) (probeOp, error) {
		net, err := simnet.PaperTopology(env)
		if err != nil {
			return nil, err
		}
		return func(p *sim.Proc, _ int) error {
			return net.Transfer(p, simnet.NodeClientsEdge1, simnet.NodeMain, 512)
		}, nil
	})},
	{"simnet.host_ns_per_transfer_h128", simProbe(probeProcs, 0, func(env *sim.Env) (probeOp, error) {
		h, err := simnet.BuildHierarchy(env, simnet.DefaultHierarchySpec(128))
		if err != nil {
			return nil, err
		}
		// clients -> edge -> hub -> main: the 3-hop path of a remote page.
		return func(p *sim.Proc, i int) error {
			edge := h.EdgeNames[i%len(h.EdgeNames)]
			return h.Net.Transfer(p, h.ClientNode(edge), simnet.NodeMain, 512)
		}, nil
	})},
	{"web.host_ns_per_get", simProbe(probeProcs, probeThink, func(env *sim.Env) (probeOp, error) {
		net, err := simnet.PaperTopology(env)
		if err != nil {
			return nil, err
		}
		c, err := web.NewContainer(net, simnet.NodeMain, web.DefaultOptions)
		if err != nil {
			return nil, err
		}
		c.Handle("p", func(*sim.Proc, *web.Request) (*web.Response, error) { return nil, nil })
		return func(p *sim.Proc, _ int) error {
			_, _, err := c.Get(p, simnet.NodeClientsMain, "p", nil, nil)
			return err
		}, nil
	})},
	{"rmi.host_ns_per_invoke_local", rmiProbe(simnet.NodeMain)},
	{"rmi.host_ns_per_invoke_wan", rmiProbe(simnet.NodeEdge1)},
	{"container.host_ns_per_stateless_call", deploymentProbe(func(d *core.Deployment) (probeOp, error) {
		noop := func(*sim.Proc, *container.Invocation) (any, error) { return nil, nil }
		if _, err := container.DeployStateless(d.Main, "Probe", map[string]container.Method{"noop": noop}); err != nil {
			return nil, err
		}
		return func(p *sim.Proc, _ int) error {
			stub, err := d.Main.StubFor(p, simnet.NodeMain, "Probe")
			if err != nil {
				return err
			}
			_, err = stub.Invoke(p, "noop")
			return err
		}, nil
	})},
	{"container.host_ns_per_replica_get", deploymentProbe(func(d *core.Deployment) (probeOp, error) {
		ro, err := container.DeployROEntity(d.Edges[0], "ProbeRO", "Probe", nil)
		if err != nil {
			return nil, err
		}
		for k := int64(0); k < probeKeys; k++ {
			ro.Preload(sqldb.Int(k), container.State{"id": sqldb.Int(k), "v": sqldb.Int(k)})
		}
		return func(p *sim.Proc, i int) error {
			_, err := ro.Get(p, sqldb.Int(int64(i%probeKeys)))
			return err
		}, nil
	})},
	{"container.host_ns_per_querycache_get", deploymentProbe(func(d *core.Deployment) (probeOp, error) {
		qc := container.NewQueryCache(d.Edges[0], "probe", nil)
		keys := make([]string, probeKeys)
		for k := range keys {
			keys[k] = "q:" + strconv.Itoa(k)
			qc.Put(keys[k], "rows")
		}
		return func(p *sim.Proc, i int) error {
			_, err := qc.Get(p, keys[i%probeKeys])
			return err
		}, nil
	})},
	{"container.host_ns_per_update_fields", deploymentProbe(func(d *core.Deployment) (probeOp, error) {
		if _, err := d.DB.Exec(`CREATE TABLE kv (id INT PRIMARY KEY, v INT NOT NULL)`); err != nil {
			return nil, err
		}
		for k := int64(0); k < probeKeys; k++ {
			if _, err := d.DB.Exec(`INSERT INTO kv VALUES (?, 0)`, sqldb.Int(k)); err != nil {
				return nil, err
			}
		}
		rw, err := container.DeployRWEntity(d.Main, "KV", "kv", "id")
		if err != nil {
			return nil, err
		}
		return func(p *sim.Proc, i int) error {
			_, err := rw.UpdateFields(p, sqldb.Int(int64(i%probeKeys)), container.State{"v": sqldb.Int(int64(i))})
			return err
		}, nil
	})},
	// The statement probes run the applications' own statements on the
	// applications' own seeded databases.
	{"sqldb.host_ns_per_point_select", sqlProbe(petstore.InitSchema,
		`SELECT * FROM item WHERE itemid = ?`,
		func(i int, a []sqldb.Value) []sqldb.Value {
			return append(a, sqldb.Str(petstore.ItemID(i%petstore.NumCategories, (i/7)%petstore.ProductsPerCategory, i%petstore.ItemsPerProduct)))
		})},
	{"sqldb.host_ns_per_ordered_limit", sqlProbe(rubis.InitSchema,
		`SELECT id, name, initial_price, max_bid, nb_of_bids, end_date FROM items
			WHERE category = ? ORDER BY end_date LIMIT 25`,
		func(i int, a []sqldb.Value) []sqldb.Value {
			return append(a, sqldb.Int(int64(i%rubis.NumCategories+1)))
		})},
	{"sqldb.host_ns_per_join", sqlProbe(rubis.InitSchema,
		`SELECT u.nickname, b.bid, b.qty, b.bid_date FROM bids b JOIN users u ON u.id = b.user_id
			WHERE b.item_id = ? ORDER BY b.bid DESC`,
		func(i int, a []sqldb.Value) []sqldb.Value { return append(a, sqldb.Int(int64(i%rubis.NumItems+1))) })},
	{"sqldb.host_ns_per_like", sqlProbe(petstore.InitSchema,
		`SELECT * FROM product WHERE name LIKE ? OR descn LIKE ? ORDER BY productid LIMIT 25`,
		func(i int, a []sqldb.Value) []sqldb.Value {
			kw := sqldb.Str(likePatterns[i%len(likePatterns)])
			return append(a, kw, kw)
		})},
	{"sqldb.host_ns_per_insert", sqlProbe(rubis.InitSchema,
		`INSERT INTO bids VALUES (?, ?, ?, ?, ?, ?)`,
		func(i int, a []sqldb.Value) []sqldb.Value {
			id := int64(rubis.NumItems*rubis.SeedBidsPerItem + 1 + i)
			return append(a, sqldb.Int(id), sqldb.Int(int64(i%rubis.NumUsers+1)), sqldb.Int(int64(i%rubis.NumItems+1)),
				sqldb.Int(1), sqldb.Float(5+float64(i%500)), sqldb.Int(int64(i)))
		})},
	{"sqldb.host_ns_per_update", sqlProbe(petstore.InitSchema,
		`UPDATE inventory SET qty = ? WHERE itemid = ?`,
		func(i int, a []sqldb.Value) []sqldb.Value {
			return append(a, sqldb.Int(int64(1000+i%100)),
				sqldb.Str(petstore.ItemID(i%petstore.NumCategories, (i/7)%petstore.ProductsPerCategory, i%petstore.ItemsPerProduct)))
		})},
	{"sqldb.snapshot_restore_ms", func(n int) (*probeRun, error) {
		// Restores the RUBiS template, the larger of the two; the first call
		// in a process also builds it, which prepare pays here.
		if err := rubis.InitSchema(sqldb.New()); err != nil {
			return nil, err
		}
		n = max(1, n/2000) // a restore is ~1000x a statement
		return &probeRun{run: func() (int64, error) {
			for i := 0; i < n; i++ {
				if err := rubis.InitSchema(sqldb.New()); err != nil {
					return 0, err
				}
			}
			return int64(n), nil
		}}, nil
	}},
	{"jms.host_ns_per_publish_deliver", deploymentProbe(func(d *core.Deployment) (probeOp, error) {
		d.JMS.CreateTopic("probe")
		for _, e := range d.Edges {
			if err := d.JMS.Subscribe("probe", e.Name(), "sub-"+e.Name(), func(*sim.Proc, *jms.Message) {}); err != nil {
				return nil, err
			}
		}
		return func(p *sim.Proc, _ int) error {
			return d.JMS.Publish(p, simnet.NodeMain, "probe", nil, 0)
		}, nil
	})},
	{"metrics.host_ns_per_counter_inc", func(n int) (*probeRun, error) {
		// The labelled increment of the web and sqldb hot paths.
		vec := metrics.NewRegistry(nil).CounterVec("probe_total", "page")
		labels := []string{"Main", "Category", "Product", "Item", "Search", "Cart", "Commit", "Signout"}
		return &probeRun{run: func() (int64, error) {
			for i := 0; i < n; i++ {
				vec.With(labels[i&7]).Inc()
			}
			return int64(n), nil
		}}, nil
	}},
	{"metrics.host_ns_per_observe", func(n int) (*probeRun, error) {
		h := metrics.NewRegistry(nil).Histogram("probe_ns")
		return &probeRun{run: func() (int64, error) {
			for i := 0; i < n; i++ {
				h.Observe(time.Duration(1000 + (i*7919)%400_000_000))
			}
			return int64(n), nil
		}}, nil
	}},
	{"workload.null_pages_per_sec", prepareNullWorkload},
	{"workload.host_ns_per_session_gen", func(n int) (*probeRun, error) {
		n = max(1, n/20) // a browser session is 20 pages
		rng := rand.New(rand.NewSource(1))
		var steps []workload.Step
		return &probeRun{run: func() (int64, error) {
			for i := 0; i < n; i++ {
				steps = petstore.BrowserRefill(rng, steps[:0])
			}
			return int64(n), nil
		}}, nil
	}},
}

const (
	probeKeys = 100
	// Engine-backed probes run 8 processes: the paper workload has about
	// that many requests in flight (30 pages/s x 0.25 s), and what a process
	// switch costs depends on how many goroutine stacks compete for the cache
	// (measured: 540 ns among 8 processes, 730 ns among 240). Probes that
	// occupy a server CPU think between calls, which keeps the 2-slot CPUs as
	// lightly loaded as in the real runs.
	probeProcs = 8
	probeThink = 50 * time.Millisecond
)

var likePatterns = []string{"%P01%", "%P07%", "%P13%", "%line 3%", "%category 9%"}

type probeOp func(p *sim.Proc, i int) error

// simProbe shares about n calls of an op between procs processes of a fresh
// environment, each pausing think of virtual time after a call.
func simProbe(procs int, think time.Duration, build func(env *sim.Env) (probeOp, error)) func(n int) (*probeRun, error) {
	return func(n int) (*probeRun, error) {
		env := sim.NewEnv(1)
		op, err := build(env)
		if err != nil {
			return nil, err
		}
		per := (n + procs - 1) / procs
		var firstErr error
		for k := 0; k < procs; k++ {
			env.Spawn("probe-"+strconv.Itoa(k), func(p *sim.Proc) {
				for i := 0; i < per && firstErr == nil; i++ {
					if err := op(p, k*per+i); err != nil {
						firstErr = err
						return
					}
					if think > 0 {
						p.Sleep(think)
					}
				}
			})
		}
		return &probeRun{
			run: func() (int64, error) {
				env.RunAll()
				env.Close()
				return int64(per * procs), firstErr
			},
			events: env.Dispatched,
		}, nil
	}
}

// deploymentProbe is simProbe on the paper's three-server deployment.
func deploymentProbe(build func(d *core.Deployment) (probeOp, error)) func(n int) (*probeRun, error) {
	return simProbe(probeProcs, probeThink, func(env *sim.Env) (probeOp, error) {
		d, err := core.NewPaperDeployment(env, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		return build(d)
	})
}

func rmiProbe(caller string) func(n int) (*probeRun, error) {
	return simProbe(probeProcs, 0, func(env *sim.Env) (probeOp, error) {
		net, err := simnet.PaperTopology(env)
		if err != nil {
			return nil, err
		}
		rt := rmi.NewRuntime(net, rmi.DefaultOptions)
		if _, err := rt.Bind(simnet.NodeMain, "svc", func(*sim.Proc, *rmi.Call) (any, error) { return nil, nil }); err != nil {
			return nil, err
		}
		stub, err := rt.LocalStub(caller, simnet.NodeMain, "svc")
		if err != nil {
			return nil, err
		}
		return func(p *sim.Proc, _ int) error {
			_, err := stub.Invoke(p, "m")
			return err
		}, nil
	})
}

func sqlProbe(initSchema func(*sqldb.DB) error, stmt string, args func(i int, a []sqldb.Value) []sqldb.Value) func(n int) (*probeRun, error) {
	return func(n int) (*probeRun, error) {
		db := sqldb.New()
		if err := initSchema(db); err != nil {
			return nil, err
		}
		buf := make([]sqldb.Value, 0, 8)
		return &probeRun{run: func() (int64, error) {
			for i := 0; i < n; i++ {
				if _, err := db.Exec(stmt, args(i, buf[:0])...); err != nil {
					return 0, err
				}
			}
			return int64(n), nil
		}}, nil
	}
}

// tickTask is a self-rescheduling task; the fleet stops when the shared
// countdown reaches zero.
type tickTask struct {
	remaining *int64
	period    time.Duration
}

func (t *tickTask) Fire(e *sim.Env) {
	if *t.remaining <= 0 {
		return
	}
	*t.remaining--
	e.AfterTask(t.period, t)
}

func prepareTaskEvents(n int) (*probeRun, error) {
	env := sim.NewEnv(1)
	remaining := int64(n)
	for i := 0; i < 256; i++ {
		// Periods spread over 1..16 ms so firings land across wheel slots,
		// as think-time-paced sessions do.
		t := &tickTask{remaining: &remaining, period: time.Duration(1+i%16) * time.Millisecond}
		env.AfterTask(time.Duration(i+1)*time.Microsecond, t)
	}
	return &probeRun{run: func() (int64, error) {
		env.RunAll()
		env.Close()
		return int64(env.Dispatched()), nil
	}}, nil
}

// prepareNullWorkload is the driver + engine floor: the paper's client groups
// with a RequestFunc that only sleeps 1 ms of virtual time.
func prepareNullWorkload(n int) (*probeRun, error) {
	env := sim.NewEnv(1)
	d, err := core.NewPaperDeployment(env, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	a, err := petstore.Deploy(d, core.Centralized)
	if err != nil {
		return nil, err
	}
	groups := petstore.PaperWorkload(a)
	rate := 0.0
	for i := range groups {
		groups[i].Request = func(p *sim.Proc, _ workload.Client, _ workload.Step) (time.Duration, error) {
			p.Sleep(time.Millisecond)
			return time.Millisecond, nil
		}
		rate += groups[i].Rate()
	}
	var pages int64
	cfg := workload.Config{
		Env:      env,
		Groups:   groups,
		Duration: time.Duration(float64(n) / rate * float64(time.Second)),
		Observer: func(time.Duration, workload.Client, workload.SeriesKey, time.Duration, error) { pages++ },
	}
	return &probeRun{
		run: func() (int64, error) {
			_, err := workload.Run(cfg)
			return pages, err
		},
		events: env.Dispatched,
	}, nil
}
