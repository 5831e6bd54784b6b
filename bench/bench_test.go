package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // the contract allows exactly its own keys
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesRegistry pins BENCHMARK.json to the harness's metric and
// workload registries, and both to the contract's limits.
func TestContractMatchesRegistry(t *testing.T) {
	got, want := loadContract(t), buildContract()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the registries; regenerate it with `go run ./bench -print-contract > BENCHMARK.json`")
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range want.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks a contract limit", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range want.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer metric %+v breaks a contract limit", m)
		}
	}
}

// TestOnlyAdapterImportsProgram keeps every call into the program in
// adapter.go.
func TestOnlyAdapterImportsProgram(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.HasPrefix(imp.Path.Value, `"wadeploy/`) && f != "adapter.go" {
				t.Errorf("%s imports %s; only adapter.go may call into the program", f, imp.Path.Value)
			}
		}
	}
}

// TestReadmeNamesEverything keeps the README's glossary complete.
func TestReadmeNamesEverything(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	c := buildContract()
	for _, w := range c.Workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not mention workload %s", w.Name)
		}
	}
	for _, m := range c.EndToEnd {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not define %s", m.Name)
		}
	}
	for _, m := range c.PerLayer {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not define %s", m.Name)
		}
	}
}

// checkLine holds a contract line to exactly the wanted names, each with its
// registered unit.
func checkLine(t *testing.T, line contractLine, want map[string]string) {
	t.Helper()
	if line.Attempted < 1 || line.Failed != 0 || !line.Correct {
		t.Errorf("correct=%t attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	for name, unit := range want {
		got, ok := line.Metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
		} else if got.Unit != unit {
			t.Errorf("metric %s has unit %q, want %q", name, got.Unit, unit)
		}
	}
	for name := range line.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
		}
	}
}

// TestSmoke runs every workload at -smoke size in both phases: each phase
// emits exactly the names of BENCHMARK.json, and same-seed runs agree on the
// digest and on every exact (count or virtual-time) value. The two phases of
// a workload are two runs of one seed; the first workload also repeats its
// traced phase, so the exact per-layer values are compared run against run.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	endToEndUnits, perLayerUnits := map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	for i, cw := range c.Workloads {
		t.Run(cw.Name, func(t *testing.T) {
			w := findWorkload(cw.Name)
			if w == nil {
				t.Fatalf("BENCHMARK.json workload %s is not in the registry", cw.Name)
			}
			run := func(traced bool) *workloadResult {
				res, _, err := runInvocation(invocation{W: w, Seed: 1, Seconds: 1, Traced: traced, Smoke: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range res.Failures {
					t.Errorf("gate: %s", f)
				}
				return res
			}
			untraced, traced := run(false), run(true)
			checkLine(t, untraced.contractLine(), endToEndUnits)
			checkLine(t, traced.contractLine(), perLayerUnits)
			if untraced.Digest != traced.Digest || untraced.Round.PagesEach != traced.Round.PagesEach {
				t.Errorf("same seed: digest %s, %d pages, then digest %s, %d pages",
					untraced.Digest, untraced.Round.PagesEach, traced.Digest, traced.Round.PagesEach)
			}
			if i > 0 {
				return
			}
			again := run(true)
			for _, def := range perLayer {
				if a, b := traced.PerLayer[def.Name].Value, again.PerLayer[def.Name].Value; def.exact() && a != b {
					t.Errorf("%s: %v then %v for one seed", def.Name, a, b)
				}
			}
		})
	}
}

// TestSelfTimes checks the per-layer virtual self time of one hand-built
// span tree: the layer sums add up to the page's response time, spans of an
// unlisted layer are charged to their parent's, async spans are left out.
func TestSelfTimes(t *testing.T) {
	spans := []vspan{
		{Parent: -1, Layer: "page", Start: 0, End: 100},
		{Parent: 0, Layer: "http", Start: 0, End: 100},
		{Parent: 1, Layer: "tcp", Start: 0, End: 10},
		{Parent: 1, Layer: "servlet", Start: 20, End: 80},
		{Parent: 3, Layer: "cpu", Start: 20, End: 30},
		{Parent: 3, Layer: "rmi", Start: 30, End: 70},
		{Parent: 5, Layer: "sql", Start: 40, End: 60},
		{Parent: 5, Layer: "jms", Async: true, Start: 50, End: 500},
		{Parent: 7, Layer: "push", Start: 60, End: 400},
	}
	st := newSelfTimes()
	st.add(spans)
	want := map[string]int64{"web": 50, "simnet": 10, "rmi": 20, "sqldb": 20}
	if !reflect.DeepEqual(st.ByLayer, want) {
		t.Errorf("self times %v, want %v", st.ByLayer, want)
	}
	if st.Traces != 1 || st.Spans != int64(len(spans)) {
		t.Errorf("counted %d traces, %d spans", st.Traces, st.Spans)
	}
}

// TestQuartiles pins the spread rule to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3: %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
