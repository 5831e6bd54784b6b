package workload

import "math/rand"

// ExpectedVisits estimates the expected number of visits to each page in
// one session of a generator, by averaging n generated sessions from a
// private deterministic RNG. The planner derives its page weights from this
// so the analytic model and the simulated workload share one definition of
// a session; deterministic inputs give a deterministic map.
func ExpectedVisits(gen StreamGen, n int, seed int64) map[string]float64 {
	if n <= 0 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	counts := make(map[string]float64)
	var step Step
	for i := 0; i < n; i++ {
		for st := (StreamState{}); gen(rng, &st, &step); st.Pos++ {
			counts[step.Page]++
			step.Page = ""
			clear(step.Params)
		}
	}
	for page := range counts {
		counts[page] /= float64(n)
	}
	return counts
}
