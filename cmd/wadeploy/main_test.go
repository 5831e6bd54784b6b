package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
	got := stdout(t, args)
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
			t.Fatalf("wadeploy %s: stdout differs from %s at line %d\n got: %q\nwant: %q",
				strings.Join(args, " "), path, i+1, g, w)
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
}

func TestRunConsistency(t *testing.T) {
	golden(t, "consistency", tiny("consistency")...)
}

func TestRunFaultsTiny(t *testing.T) {
	golden(t, "faults", tiny("-faults", "canonical", "faults")...)
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
