// Command bench is the repository's benchmark (ISSUE 11, ROADMAP item 1): it
// drives the real simulator stack from outside through bench/adapter.go,
// reports end-to-end metrics on four named workloads with tracing off, and in
// a separate traced phase reports per-layer counts, host-time probes and
// virtual self time. See bench/README.md for the ground rules and glossary.
//
//	go run ./bench                       all four workloads, end-to-end metrics
//	go run ./bench -traced               ... then the traced phase (per-layer metrics)
//	go run ./bench -compare A.json B.json
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (BENCHMARK.json command)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	traced   bool
	compare  bool
	contract bool
	out      string
	outDir   string
	rev      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print the contract's JSON line last")
	flag.Int64Var(&o.seed, "seed", 1, "the only source of generated input; seed 2 is the held-out seed")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "timed seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 end-to-end metrics (tracing off), 1 per-layer metrics (traced phase)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny size: 20 virtual seconds, 1 round, 2000 stream clients")
	flag.BoolVar(&o.traced, "traced", false, "after the end-to-end numbers, run the traced phase of every workload")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files or directories of result files: -compare A B")
	flag.BoolVar(&o.contract, "print-contract", false, "print BENCHMARK.json as the registries define it")
	flag.StringVar(&o.out, "o", "", "result file (default <out-dir>/result.json, or <out-dir>/<workload>[.traced].json with -workload)")
	flag.StringVar(&o.outDir, "out-dir", filepath.Join("bench", "out"), "directory for result and span files")
	flag.StringVar(&o.rev, "rev", "", "git revision to record in the manifest (default: the build's VCS stamp)")
	flag.Parse()

	var err error
	switch {
	case o.contract:
		err = printContract(os.Stdout)
	case o.compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare A B")
			break
		}
		err = compareMain(flag.Arg(0), flag.Arg(1), os.Stdout)
	case o.workload != "":
		err = invocationMain(o, os.Stdout)
	default:
		err = suiteMain(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func printContract(w io.Writer) error {
	data, err := json.MarshalIndent(buildContract(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// ------------------------------------------------------------ invocation --

// layerValue is one per-layer metric of a result file.
type layerValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"`
	Source string  `json:"source"`
}

type roundInfo struct {
	WarmupS   float64 `json:"warmup_s"`   // virtual
	DurationS float64 `json:"duration_s"` // virtual
	Clients   int     `json:"clients,omitempty"`
	Rounds    int     `json:"rounds"`    // timed rounds
	Discarded int     `json:"discarded"` // rounds driven first and thrown away
	TimedS    float64 `json:"timed_s"`   // sum of the timed regions
	PagesEach uint64  `json:"pages_per_round"`
}

// workloadResult is the result file of one workload in one phase.
type workloadResult struct {
	Manifest manifest  `json:"manifest"`
	Workload string    `json:"workload"`
	Why      string    `json:"why"`
	Phase    string    `json:"phase"` // "end_to_end" (tracing off) or "traced"
	Round    roundInfo `json:"round"`
	Digest   string    `json:"digest"` // of the simulated output, per (workload, seed, size)

	Correct   bool     `json:"correct"`
	Failures  []string `json:"gate_failures,omitempty"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`

	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]layerValue  `json:"per_layer,omitempty"`
	Probes   map[string]probeResult `json:"probes,omitempty"`
	Notes    []string               `json:"notes,omitempty"`
}

type invocation struct {
	W       *workloadDef
	Seed    int64
	Seconds int
	Traced  bool
	Smoke   bool
	Rev     string
}

func (inv invocation) size() roundSize {
	if inv.Smoke {
		return inv.W.Smoke
	}
	return inv.W.Full
}

// runInvocation measures one workload in one phase, in this process, with
// GOMAXPROCS pinned.
func runInvocation(inv invocation) (*workloadResult, *hostSpans, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(pinnedProcs))
	hs := newHostSpans()
	res := &workloadResult{
		Manifest: newManifest(inv.Rev, inv.Seed, inv.Seconds, inv.Smoke),
		Workload: inv.W.Name,
		Why:      inv.W.Why,
		Phase:    "end_to_end",
	}
	if !res.Manifest.Valid {
		res.Notes = append(res.Notes, fmt.Sprintf("INVALID: nproc %d < %d, host-time numbers are not comparable", res.Manifest.NProc, pinnedProcs))
	}
	size := inv.size()
	o := roundOptions{Seed: inv.Seed, Size: size, Workers: 1}
	p := plan{Discard: true, MinRounds: minRounds, Budget: time.Duration(inv.Seconds) * time.Second}
	if inv.Traced {
		// No discarded round here: the median of three sheds the cold one.
		res.Phase = "traced"
		p = plan{MinRounds: tracedRounds, Budget: p.Budget * 2 / 5}
	}
	if inv.Smoke {
		p = plan{MinRounds: 1}
	}
	samples, err := timedRounds(inv.W, o, p, hs)
	if err != nil {
		return nil, nil, err
	}
	var g gate
	g.checkRounds(inv.W, samples)
	res.Digest = samples[0].Digest
	res.Round = roundInfo{
		WarmupS: size.Warmup.Seconds(), DurationS: size.Duration.Seconds(), Clients: size.Clients,
		Rounds: len(samples), PagesEach: samples[0].Out.Pages,
	}
	if p.Discard {
		res.Round.Discarded = 1
	}
	for _, s := range samples {
		res.Attempted += s.Out.Pages
		res.Failed += s.Out.Failed
		res.Round.TimedS += s.Host.Wall.Seconds()
	}
	if inv.Traced {
		err = tracedPhase(inv, o, samples, &g, res, hs)
	} else {
		res.EndToEnd = endToEndMetrics(samples)
		for _, def := range endToEnd {
			if res.EndToEnd[def.Name].Value == 0 {
				g.failf("end-to-end metric %s is 0", def.Name)
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}
	res.Correct, res.Failures = g.ok(), g.Failures
	return res, hs, nil
}

// tracedPhase is everything a --trace 1 invocation adds to its untraced
// rounds: one round with the program's causal tracer armed on every page, one
// round at GOMAXPROCS=1, the probes and the scaling records.
func tracedPhase(inv invocation, o roundOptions, untraced []*roundSample, g *gate, res *workloadResult, hs *hostSpans) error {
	in := layerInputs{W: inv.W, Untraced: untraced, Self: newSelfTimes(), Probes: make(map[string]probeResult), Extra: make(map[string]float64)}
	want := untraced[0].Digest

	to := o
	to.Sink = in.Self
	var err error
	if in.Traced, err = runRound(inv.W, to, hs); err != nil {
		return fmt.Errorf("traced round: %w", err)
	}
	g.checkSameDigest("traced round", in.Traced, want)
	if in.Self.Traces == 0 {
		g.failf("traced round finished no trace")
	}

	// One round and every probe run at GOMAXPROCS=1, where a process switch
	// is a same-thread hand-off: probe timings repeat within a percent or two
	// there, against 10-20% with a second thread stealing goroutines. What
	// the second thread costs the engine is reported once, as
	// sim.procs1_speedup.
	restore := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(restore)
	if in.Procs1, err = runRound(inv.W, o, hs); err != nil {
		return fmt.Errorf("GOMAXPROCS=1 round: %w", err)
	}
	g.checkSameDigest("GOMAXPROCS=1 round", in.Procs1, want)

	minProbe, pairs := 300*time.Millisecond, 2
	stream, table := roundSize{Warmup: 2 * time.Second, Duration: 40 * time.Second, Clients: 100000}, roundSize{Warmup: 30 * time.Second, Duration: 4 * time.Minute}
	if inv.Smoke {
		minProbe, pairs = time.Millisecond, 1
		stream, table = roundSize{Warmup: 2 * time.Second, Duration: 10 * time.Second, Clients: 2000}, roundSize{Warmup: 2 * time.Second, Duration: 6 * time.Second}
	} else if time.Since(processStart) > hardStop/2 {
		// The rounds alone took several times what they take on the
		// reference box: measure the rest less finely rather than overrun
		// the contract's 180 s.
		minProbe, pairs = 100*time.Millisecond, 1
	}
	in.Extra["metrics.snapshot_ms"] = 0
	if snapshot := untraced[len(untraced)-1].snapshot; snapshot != nil {
		r, err := measureProbe(probeDef{"metrics.snapshot_ms", func(n int) (*probeRun, error) {
			n = max(1, n/1000) // a snapshot is ~1000x a counter increment
			return &probeRun{run: func() (int64, error) {
				for i := 0; i < n; i++ {
					snapshot()
				}
				return int64(n), nil
			}}, nil
		}}, minProbe, hs)
		if err != nil {
			return err
		}
		in.Extra["metrics.snapshot_ms"] = r.NsPerOp / 1e6
	}
	for _, p := range probes {
		if in.Probes[p.Metric], err = measureProbe(p, minProbe, hs); err != nil {
			return err
		}
	}
	runtime.GOMAXPROCS(restore) // the scaling records need the second thread
	if err := shardScaling(inv.Seed, stream, pairs, g, in.Extra, hs); err != nil {
		return err
	}
	if err := tableScaling(table, in.Extra, hs); err != nil {
		return err
	}

	values, notes, err := perLayerMetrics(in)
	if err != nil {
		return err
	}
	res.Notes = append(res.Notes, notes...)
	res.Probes = in.Probes
	res.PerLayer = make(map[string]layerValue, len(perLayer))
	for _, def := range perLayer {
		res.PerLayer[def.Name] = layerValue{Value: values[def.Name], Unit: def.Unit, Clock: def.Clock, Source: def.Source}
	}
	return nil
}

// shardScaling records what a second worker buys the sharded stream engine
// (Workers 2 vs 1 on scale-stream's classes at a reduced size), holds the two
// to one digest, and derives the stream engine's bytes per client.
func shardScaling(seed int64, size roundSize, pairs int, g *gate, extra map[string]float64, hs *hostSpans) error {
	w := findWorkload("scale-stream")
	var pps [3][]float64
	var digest string
	var bytesPerClient float64
	for i := 0; i < pairs; i++ {
		for _, workers := range []int{1, 2} {
			s, err := runRound(w, roundOptions{Seed: seed, Size: size, Workers: workers}, hs)
			if err != nil {
				return fmt.Errorf("shard scaling, %d workers: %w", workers, err)
			}
			if digest == "" {
				digest = s.Digest
				bytesPerClient = ratio(float64(s.Host.TotalAlloc), float64(size.Clients))
			}
			g.checkSameDigest(fmt.Sprintf("stream round with Workers=%d", workers), s, digest)
			pps[workers] = append(pps[workers], s.pagesPerSec())
		}
	}
	extra["sim.shard_speedup_w2"] = ratio(median(pps[2]), median(pps[1]))
	extra["sim.shard_efficiency_w2"] = extra["sim.shard_speedup_w2"] / 2
	extra["workload.stream_bytes_per_client"] = bytesPerClient
	return nil
}

// tableScaling records what a second worker buys the experiment engine:
// RunTable at Parallelism 2 vs 1.
func tableScaling(size roundSize, extra map[string]float64, hs *hostSpans) error {
	var wall [3]time.Duration
	for _, par := range []int{1, 2} {
		end := hs.open(fmt.Sprintf("probe.experiment.run_table_p%d", par), "experiment")
		t0 := time.Now()
		pages, err := runTablePages(size, par)
		wall[par] = time.Since(t0)
		end(int64(pages))
		if err != nil {
			return fmt.Errorf("RunTable, parallelism %d: %w", par, err)
		}
	}
	extra["experiment.parallel_speedup_p2"] = ratio(wall[1].Seconds(), wall[2].Seconds())
	extra["experiment.parallel_efficiency_p2"] = extra["experiment.parallel_speedup_p2"] / 2
	return nil
}

// contractLine is the last line of an invocation's standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *workloadResult) contractLine() contractLine {
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]contractValue)}
	for name, m := range res.EndToEnd {
		line.Metrics[name] = contractValue{m.Value, m.Unit}
	}
	for name, m := range res.PerLayer {
		line.Metrics[name] = contractValue{m.Value, m.Unit}
	}
	return line
}

func (res *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "%s  seed %d  digest %s  %s phase\n", res.Workload, res.Manifest.Seed, res.Digest, res.Phase)
	fmt.Fprintf(w, "  %d timed rounds of %d pages (%.0f s warm-up + %.0f s virtual), %.1f s timed, GOMAXPROCS %d of %d CPUs, %s, rev %s\n",
		res.Round.Rounds, res.Round.PagesEach, res.Round.WarmupS, res.Round.DurationS, res.Round.TimedS,
		res.Manifest.GOMAXPROCS, res.Manifest.NProc, res.Manifest.GoVersion, res.Manifest.GitRevision)
	if len(res.EndToEnd) > 0 {
		fmt.Fprintf(w, "  %-26s %-8s %-10s %14s %-13s %14s %14s %14s %14s %14s %3s %7s\n", "metric", "unit", "clock", "value", "is the", "median", "q1", "q3", "min", "max", "n", "iqr%")
		for _, def := range endToEnd {
			m := res.EndToEnd[def.Name]
			flag := ""
			if m.Unresolved {
				flag = "  UNRESOLVED: spread exceeds the bound"
			}
			if m.Note != "" {
				flag += "  (" + m.Note + ")"
			}
			fmt.Fprintf(w, "  %-26s %-8s %-10s %14.6g %-13s %14.6g %14.6g %14.6g %14.6g %14.6g %3d %7.2f%s\n",
				def.Name, m.Unit, m.Clock, m.Value, m.Pick, m.Median, m.Q1, m.Q3, m.Min, m.Max, m.N, m.IQRPct, flag)
		}
	}
	if len(res.PerLayer) > 0 {
		fmt.Fprintf(w, "  %-44s %-8s %-10s %-3s %16s\n", "metric", "unit", "clock", "src", "value")
		for _, def := range perLayer {
			m := res.PerLayer[def.Name]
			fmt.Fprintf(w, "  %-44s %-8s %-10s %-3s %16.6g\n", def.Name, m.Unit, m.Clock, m.Source, m.Value)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  GATE FAILURE: %s\n", f)
	}
}

// invocationMain is the BENCHMARK.json command: one workload, one phase, this
// process; the contract's JSON object is the last line of standard output.
func invocationMain(o options, stdout io.Writer) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("no such workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	res, hs, err := runInvocation(invocation{W: w, Seed: o.seed, Seconds: o.seconds, Traced: o.trace == 1, Smoke: o.smoke, Rev: o.rev})
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	out := o.out
	if out == "" {
		name := w.Name + ".json"
		if o.trace == 1 {
			name = w.Name + ".traced.json"
		}
		out = filepath.Join(o.outDir, name)
	}
	if err := writeJSON(out, res); err != nil {
		return err
	}
	if o.trace == 1 {
		if err := writeJSON(filepath.Join(o.outDir, w.Name+".spans.json"), map[string]any{"workload": w.Name, "spans": hs.spans}); err != nil {
			return err
		}
	}
	res.print(stdout)
	line, err := json.Marshal(res.contractLine())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: correctness gate failed", w.Name)
	}
	return nil
}

// ----------------------------------------------------------------- suite --

// suiteResult is the result file of `go run ./bench`: every workload's
// end-to-end metrics from untraced rounds, and with -traced its per-layer
// metrics from the separate traced phase.
type suiteResult struct {
	Manifest  manifest                   `json:"manifest"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// suiteMain runs every workload in a fresh child process (one sim.Env at a
// time, cold templates paid in a discarded round), the traced phase only
// after every end-to-end number is captured.
func suiteMain(o options, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	suite := suiteResult{Manifest: newManifest(o.rev, o.seed, o.seconds, o.smoke), Workloads: make(map[string]*workloadResult)}
	suite.Manifest.GOMAXPROCS = pinnedProcs
	child := func(w string, trace int) (*workloadResult, error) {
		path := filepath.Join(o.outDir, fmt.Sprintf("%s.phase%d.json", w, trace))
		args := []string{"-workload", w, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(trace), "-o", path, "-out-dir", o.outDir, "-rev", suite.Manifest.GitRevision}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		runErr := cmd.Run() // a failed gate exits non-zero but still leaves its result file
		var res workloadResult
		if err := readJSON(path, &res); err != nil {
			if runErr != nil {
				return nil, fmt.Errorf("%s: %w", w, runErr)
			}
			return nil, err
		}
		return &res, os.Remove(path)
	}
	failed := false
	for _, w := range workloads {
		res, err := child(w.Name, 0)
		if err != nil {
			return err
		}
		suite.Workloads[w.Name] = res
		failed = failed || !res.Correct
	}
	if o.traced {
		for _, w := range workloads {
			res, err := child(w.Name, 1)
			if err != nil {
				return err
			}
			// End-to-end numbers stay the untraced phase's; the traced phase
			// adds the per-layer ones.
			base := suite.Workloads[w.Name]
			base.PerLayer, base.Probes = res.PerLayer, res.Probes
			base.Notes = append(base.Notes, res.Notes...)
			base.Failures = append(base.Failures, res.Failures...)
			base.Correct = base.Correct && res.Correct
			failed = failed || !res.Correct
		}
	}
	out := o.out
	if out == "" {
		out = filepath.Join(o.outDir, "result.json")
	}
	if err := writeJSON(out, suite); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nresult file: %s\n", out)
	for _, w := range workloads {
		res := suite.Workloads[w.Name]
		fmt.Fprintf(stdout, "  %-22s seed %d digest %s correct %t\n", w.Name, o.seed, res.Digest, res.Correct)
	}
	if failed {
		return fmt.Errorf("correctness gate failed")
	}
	return nil
}
