package rubis

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"wadeploy/internal/race"
	"wadeploy/internal/workload"
)

// session steps gen through the next whole session drawn from rng, each step
// in a Step of its own.
func session(gen workload.StreamGen, rng *rand.Rand) []workload.Step {
	var steps []workload.Step
	for st := (workload.StreamState{}); ; st.Pos++ {
		var step workload.Step
		if !gen(rng, &st, &step) {
			return steps
		}
		steps = append(steps, step)
	}
}

// sessionFingerprint hashes n consecutive sessions of gen from one seeded
// RNG stream, stepped as the drivers step it — one Step reused and cleared
// per page: every page and every parameter, keys in sorted order.
func sessionFingerprint(gen workload.StreamGen, seed int64, n int) uint64 {
	h := fnv.New64a()
	rng := rand.New(rand.NewSource(seed))
	var step workload.Step
	for s := 0; s < n; s++ {
		for st := (workload.StreamState{}); ; st.Pos++ {
			step.Page = ""
			clear(step.Params)
			if !gen(rng, &st, &step) {
				break
			}
			fmt.Fprintf(h, "%s{", step.Page)
			keys := make([]string, 0, len(step.Params))
			for k := range step.Params {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(h, "%s=%s,", k, step.Params[k])
			}
			fmt.Fprint(h, "}")
		}
	}
	return h.Sum64()
}

// TestRefillMatchesSession pins the generators' RNG contract: for a fixed
// seed they produce exactly the sessions the paper-table goldens were
// recorded with. The fingerprints were taken from the allocating generators
// these replaced, and held when the driver went from whole sessions drawn up
// front to one step drawn per page.
func TestRefillMatchesSession(t *testing.T) {
	cases := []struct {
		name string
		gen  workload.StreamGen
		want uint64
	}{
		{"browser", BrowserStream, 0x64cdcc72b9adb236},
		{"bidder", BidderStream, 0x14d016dd5108d871},
	}
	for _, tc := range cases {
		if got := sessionFingerprint(tc.gen, 17, 50); got != tc.want {
			t.Errorf("%s: 50 sessions from seed 17 hash to %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestRefillAllocs guards per-step generation: once the step's params map
// exists, drawing further steps into it allocates nothing.
func TestRefillAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	rng := rand.New(rand.NewSource(3))
	var browser, bidder workload.StreamState
	var step workload.Step
	draw := func(gen workload.StreamGen, st *workload.StreamState) {
		step.Page = ""
		clear(step.Params)
		if !gen(rng, st, &step) {
			*st = workload.StreamState{}
			gen(rng, st, &step)
		}
		st.Pos++
	}
	for i := 0; i < 100; i++ { // allocate the params map
		draw(BrowserStream, &browser)
		draw(BidderStream, &bidder)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		draw(BrowserStream, &browser)
		draw(BidderStream, &bidder)
	})
	if allocs > 0 {
		t.Errorf("steady-state step generation allocates %.1f objects, want 0", allocs)
	}
}
