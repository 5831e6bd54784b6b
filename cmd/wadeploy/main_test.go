package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/experiment"
	"wadeploy/internal/faults"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// tiny returns args for a very short run.
func tiny(extra ...string) []string {
	return append([]string{"-warmup", "5s", "-duration", "30s"}, extra...)
}

// stdout runs one command line and returns what it printed to standard
// output; stderr (wall-clock lines) is left alone.
func stdout(t *testing.T, args []string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := run(args)
	w.Close()
	os.Stdout = saved
	got := <-out
	r.Close()
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	return got
}

// golden checks a command line's stdout byte for byte against
// testdata/<name>.golden; `go test ./cmd/wadeploy -update` rewrites the file.
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	matchGolden(t, name, stdout(t, args), "wadeploy "+strings.Join(args, " "))
}

// matchGolden checks got, what `what` produced, against
// testdata/<name>.golden.
func matchGolden(t *testing.T, name string, got []byte, what string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: output differs from %s at line %d\n got: %q\nwant: %q", what, path, i+1, g, w)
		}
	}
}

func TestRunInventory(t *testing.T) {
	golden(t, "inventory", "inventory")
}

func TestRunTable6Tiny(t *testing.T) {
	golden(t, "table6", tiny("table6")...)
	golden(t, "fig7", tiny("fig7")...)
}

// TestRunCSV pins the -csv FILE export of table6 byte for byte.
func TestRunCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table6.csv")
	args := tiny("-csv", path, "table6")
	stdout(t, args)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	matchGolden(t, "table6-csv", got, "wadeploy "+strings.Join(args, " "))
}

// TestRunTableParallel exercises the -parallel flag across the sequential
// path, an explicit pool, and the one-worker-per-CPU default: every setting
// prints the same table.
func TestRunTableParallel(t *testing.T) {
	for _, parallel := range []string{"1", "4", "0"} {
		golden(t, "table7-ext-p95-diag", tiny("-parallel", parallel, "-ext", "-p95", "-diag", "table7")...)
	}
}

func TestRunFig8Tiny(t *testing.T) {
	golden(t, "fig8", tiny("fig8")...)
}

func TestRunTableWithExtAndP95(t *testing.T) {
	golden(t, "table6-ext-p95-diag", tiny("-ext", "-p95", "-diag", "table6")...)
}

func TestRunAll(t *testing.T) {
	golden(t, "all", tiny("all")...)
}

func TestRunMetrics(t *testing.T) {
	golden(t, "metrics-rubis", tiny("-app", "rubis", "metrics")...)
	golden(t, "metrics-petstore", tiny("-app", "petstore", "metrics")...)
}

func TestRunSweeps(t *testing.T) {
	golden(t, "sweep-load-rubis", tiny("-app", "rubis", "-config", "centralized", "sweep-load")...)
	golden(t, "sweep-latency-petstore", tiny("-app", "petstore", "-config", "async-updates", "sweep-latency")...)
}

func TestRunExplain(t *testing.T) {
	golden(t, "explain-rubis", "-app", "rubis", "-config", "query-caching", "explain")
}

func TestRunExplainJSON(t *testing.T) {
	golden(t, "explain-petstore-json", "-app", "petstore", "-config", "async-updates", "-json", "explain")
}

func TestRunPlan(t *testing.T) {
	for _, app := range []string{"petstore", "rubis"} {
		golden(t, "plan-"+app, "-app", app, "plan")
		golden(t, "plan-"+app+"-json", "-app", app, "-json", "plan")
	}
}

func TestRunAdapt(t *testing.T) {
	golden(t, "adapt", tiny("-epoch", "5s", "adapt")...)
	golden(t, "adapt-rubis", tiny("-app", "rubis", "-epoch", "5s", "adapt")...)
}

func TestRunConsistency(t *testing.T) {
	golden(t, "consistency", tiny("consistency")...)
	golden(t, "consistency-rubis", tiny("-app", "rubis", "consistency")...)
}

func TestRunFaultsTiny(t *testing.T) {
	golden(t, "faults", tiny("-faults", "canonical", "faults")...)
}

// TestRunFaultsRUBiS pins RUBiS's availability table over a window that
// outlasts the resilience machinery's one-minute replica TTL: the edges'
// push-fed query caches, which cannot refetch, keep serving every browse
// page through the outage.
func TestRunFaultsRUBiS(t *testing.T) {
	golden(t, "faults-rubis", "-warmup", "5s", "-duration", "4m", "-app", "rubis", "-faults", "canonical", "faults")
}

// TestRunAdaptNamesDBReplicas: an adaptive db-replication run prices the
// extension as the four paper patterns, which is all the advisor ranks, and
// its report names the policy the run extended to, the edges' database
// replicas included.
func TestRunAdaptNamesDBReplicas(t *testing.T) {
	out := string(stdout(t, tiny("-config", "db-replication", "-epoch", "5s", "adapt")))
	for _, want := range []string{
		"(" + core.AsyncUpdates.Patterns() + ", ",
		"extended=true final=" + core.DBReplication.Title() + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("the report lacks %q:\n%s", want, out)
		}
	}
}

// TestRunAdaptRefusesPolicy: an adaptive run needs a replica bundle to
// extend, so the remote-façade target, which has none, fails with a policy
// error naming the policy, for either app.
func TestRunAdaptRefusesPolicy(t *testing.T) {
	for _, app := range []string{"petstore", "rubis"} {
		args := tiny("-app", app, "-config", "remote-facade", "adapt")
		if err := run(args); !errors.Is(err, core.ErrPolicy) || !strings.Contains(err.Error(), core.RemoteFacade.String()) {
			t.Errorf("wadeploy %s: %v, want a policy error naming %s", strings.Join(args, " "), err, core.RemoteFacade)
		}
	}
}

// TestRunRefusesUndeployableConfig: RUBiS declares no edge method that
// reads a database replica, so its layout refuses DB replication, and a
// command naming that pair fails with a policy error naming the policy.
func TestRunRefusesUndeployableConfig(t *testing.T) {
	args := tiny("-app", "rubis", "-config", "db-replication", "table7")
	if err := run(args); !errors.Is(err, core.ErrPolicy) || !strings.Contains(err.Error(), core.DBReplication.String()) {
		t.Errorf("wadeploy %s: %v, want a policy error naming %s", strings.Join(args, " "), err, core.DBReplication)
	}
}

// TestRunFaultsFile: a schedule file written by MarshalJSON runs exactly as
// the schedule it was written from, so `-faults FILE` and `-faults canonical`
// print the same report.
func TestRunFaultsFile(t *testing.T) {
	data, err := faults.Canonical(5*time.Second, 30*time.Second).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "canonical.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got := stdout(t, tiny("-faults", path, "faults"))
	if want := stdout(t, tiny("-faults", "canonical", "faults")); !bytes.Equal(got, want) {
		t.Fatalf("-faults %s printed\n%s\nwant the canonical schedule's report\n%s", path, got, want)
	}
}

func TestRunTableWithFaults(t *testing.T) {
	golden(t, "table6-faults", tiny("-faults", "canonical", "table6")...)
}

// TestUsageNamesEveryCommand: the package doc's usage line is the command
// table's, every name in it dispatches, and the unknown-command error names
// each one.
func TestUsageNamesEveryCommand(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "//\twadeploy [flags] "
	var doc string
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, prefix) {
			doc = strings.TrimPrefix(line, prefix)
		}
	}
	if doc != usage() {
		t.Errorf("package doc usage line %q, command table %q", doc, usage())
	}
	err = run([]string{"frobnicate"})
	if err == nil {
		t.Fatal("unknown command accepted")
	}
	_, want, _ := strings.Cut(err.Error(), "(want ")
	listed := strings.Split(strings.TrimSuffix(want, ")"), "|")
	for _, name := range strings.Split(doc, "|") {
		if lookup(name) == nil {
			t.Errorf("%s is in the usage line but does not dispatch", name)
		}
		if !slices.Contains(listed, name) {
			t.Errorf("unknown-command error %q does not name %s", err, name)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"frobnicate"},
		{"-app", "nope", "sweep-load"},
		{"-config", "nope", "sweep-latency"},
		{"-app", "nope", "explain"},
		{"-app", "nope", "faults"},
		tiny("-app", "nope", "metrics"),
		tiny("-app", "nope", "plan"),
		tiny("-app", "nope", "consistency"),
		{"-faults", "/nonexistent/schedule.json", "table6"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunTraceTiny(t *testing.T) {
	golden(t, "trace-petstore", tiny("-sample", "4", "trace")...)
	golden(t, "trace-rubis-json", tiny("-sample", "4", "-json", "-app", "rubis", "trace")...)
}

func TestRunScaleTraced(t *testing.T) {
	golden(t, "scale-traced", tiny("-sessions", "2000", "-shards", "2", "-trace", "-sample", "8", "scale")...)
}

// TestParallelRunTableDeterminism is the determinism gate over every
// subcommand that runs experiments: its spec list, run sequentially and
// eight-wide, prints byte-identical output and snapshots byte-identical
// metrics, because each run owns its environment and seed and RunAll orders
// the results by spec, not by completion. Tracing, which draws no randomness
// and adds no delays, leaves Table 6 as the untraced runs print it, clean
// and under the canonical fault schedule.
func TestParallelRunTableDeterminism(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"table6", []string{"table6"}},
		{"table6-faults", []string{"-faults", "canonical", "table6"}},
		{"table7", []string{"-ext", "-p95", "-diag", "table7"}},
		{"fig7", []string{"fig7"}},
		{"fig8", []string{"-diag", "fig8"}},
		{"metrics", []string{"-app", "rubis", "-ext", "metrics"}},
		{"faults", []string{"-diag", "faults"}},
		{"adapt", []string{"-epoch", "5s", "adapt"}},
		{"adapt-rubis", []string{"-app", "rubis", "-epoch", "5s", "adapt"}},
		{"consistency", []string{"-diag", "consistency"}},
		{"consistency-rubis", []string{"-app", "rubis", "consistency"}},
		{"plan", []string{"-sim", "plan"}},
		{"trace", []string{"-sample", "4", "trace"}},
		{"trace-faults", []string{"-sample", "4", "-faults", "canonical", "-config", "query-caching", "trace"}},
		{"sweep-latency", []string{"-app", "rubis", "sweep-latency"}},
		{"sweep-load", []string{"-config", "centralized", "sweep-load"}},
		{"topo", []string{"-app", "rubis", "-edges", "2,3,5", "-partitions", "4", "topo"}},
		{"all", []string{"-p95", "all"}},
	}
	covered := make(map[string]bool)
	tables := make(map[string]string)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var outs [2]string
			for i, parallel := range []string{"1", "8"} {
				f, cmds, err := parseFlags(append([]string{"-warmup", "10s", "-duration", "1m", "-parallel", parallel}, c.args...))
				if err != nil {
					t.Fatal(err)
				}
				cmd := lookup(cmds[0])
				covered[cmd.name] = true
				specs, err := cmd.specs(f)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := experiment.RunAll(specs)
				if err != nil {
					t.Fatal(err)
				}
				var b bytes.Buffer
				if err := cmd.print(&b, f, rs); err != nil {
					t.Fatal(err)
				}
				enc := json.NewEncoder(&b)
				for _, r := range rs {
					if err := enc.Encode(r.Metrics); err != nil {
						t.Fatal(err)
					}
				}
				outs[i] = b.String()
				tables[c.name] = experiment.FormatTable(rs)
			}
			if outs[0] != outs[1] {
				t.Errorf("wadeploy %s differs between -parallel 1 and 8", strings.Join(c.args, " "))
			}
		})
	}
	for _, c := range commands {
		if c.specs != nil && !covered[c.name] {
			t.Errorf("%s runs experiments but has no case here", c.name)
		}
	}
	for _, pair := range [][2]string{{"trace", "table6"}, {"trace-faults", "table6-faults"}} {
		if tables[pair[0]] != tables[pair[1]] {
			t.Errorf("%s changed Table 6:\n%s\nuntraced:\n%s", pair[0], tables[pair[0]], tables[pair[1]])
		}
	}
}
