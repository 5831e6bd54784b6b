package main

import "testing"

// ten returns ten samples around centre with the given relative
// inter-quartile range, shifted so that sample i of two sets can be paired.
func ten(centre, iqr float64) []float64 {
	// Quartiles of these offsets (Python's exclusive method) are -0.5, 0, +0.5.
	offsets := []float64{-0.9, -0.6, -0.5, -0.2, -0.1, 0.1, 0.2, 0.5, 0.6, 0.9}
	out := make([]float64, len(offsets))
	for i, o := range offsets {
		out[i] = centre * (1 + o*iqr)
	}
	return out
}

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "pages_per_sec", Better: "higher", Bound: 0.10, Clock: clockHost}
	lower := metricDef{Name: "cpu_us_per_page", Better: "lower", Bound: 0.10, Clock: clockHost}
	count := metricDef{Name: "sim_remote_ms_mean", Better: "lower", Bound: 0.02, Clock: clockVirtual}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"same distribution", higher, ten(1000, 0.02), ten(1000, 0.02), unchanged},
		{"worse but inside the bound", higher, ten(1000, 0.02), ten(950, 0.02), unchanged},
		{"worse beyond the bound", higher, ten(1000, 0.02), ten(850, 0.02), regressed},
		{"lower-is-better worse beyond the bound", lower, ten(30, 0.02), ten(35, 0.02), regressed},
		{"better beyond the parent's spread, every pair won", higher, ten(1000, 0.02), ten(1080, 0.02), improved},
		{"better by less than the parent's spread", higher, ten(1000, 0.06), ten(1030, 0.06), unchanged},
		{"better but only seven pairs", higher, ten(1000, 0.02)[:7], ten(1080, 0.02)[:7], unchanged},
		{"spread wider than the bound", higher, ten(1000, 0.15), ten(800, 0.15), unresolved},
		{"one noisy side is enough", lower, ten(30, 0.02), ten(30, 0.30), unresolved},
		{"exact value identical", count, []float64{483.956}, []float64{483.956}, unchanged},
		{"exact value worse inside the bound", count, []float64{483.956}, []float64{485}, unchanged},
		{"exact value worse beyond the bound", count, []float64{483.956}, []float64{500}, regressed},
		{"exact value better by any amount", count, []float64{483.956}, []float64{483.9}, improved},
	}
	for _, tc := range cases {
		if got := judge(tc.def, tc.a, tc.b); got.Verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s (worse by %.3f, won %d of %d)", tc.name, got.Verdict, tc.want, got.WorseBy, got.Won, got.Pairs)
		}
	}
}

func TestJudgeCountsPairsWon(t *testing.T) {
	def := metricDef{Better: "higher", Bound: 0.10, Clock: clockHost}
	a := []float64{10, 10, 10, 10}
	b := []float64{11, 9, 10, 12} // a win, a loss, a tie (counts for neither), a win
	if c := judge(def, a, b); c.Won != 2 || c.Pairs != 4 {
		t.Errorf("won %d of %d, want 2 of 4", c.Won, c.Pairs)
	}
}
