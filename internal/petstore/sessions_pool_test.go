package petstore

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"wadeploy/internal/race"
	"wadeploy/internal/workload"
)

// sessionFingerprint hashes n consecutive sessions of gen from one seeded
// RNG stream: every page and every parameter, keys in sorted order.
func sessionFingerprint(gen workload.RefillGen, seed int64, n int) uint64 {
	h := fnv.New64a()
	rng := rand.New(rand.NewSource(seed))
	var buf []workload.Step
	for s := 0; s < n; s++ {
		buf = gen(rng, buf[:0])
		for _, step := range buf {
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
// seed they produce exactly the sessions — page by page, param by param,
// across many consecutive sessions reusing one buffer — that the paper-table
// goldens were recorded with. The fingerprints were taken from the allocating
// generators these replaced; a change to the draw order or to a parameter
// value fails here long before it shows up as a table diff.
func TestRefillMatchesSession(t *testing.T) {
	cases := []struct {
		name string
		gen  workload.RefillGen
		want uint64
	}{
		{"browser", BrowserRefill, 0xcdb1a9a8e8d672e0},
		{"buyer", BuyerRefill, 0x882cf2737b6578fb},
	}
	for _, tc := range cases {
		if got := sessionFingerprint(tc.gen, 11, 50); got != tc.want {
			t.Errorf("%s: 50 sessions from seed 11 hash to %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestRefillAllocs guards the satellite claim: once the step buffer has
// grown, generating further sessions allocates nothing.
func TestRefillAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	rng := rand.New(rand.NewSource(3))
	var buf []workload.Step
	for s := 0; s < 20; s++ { // grow the buffer and its param maps
		buf = BrowserRefill(rng, buf[:0])
		buf = BuyerRefill(rng, buf[:0])
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = BrowserRefill(rng, buf[:0])
		buf = BuyerRefill(rng, buf[:0])
	})
	if allocs > 0 {
		t.Errorf("steady-state session generation allocates %.1f objects, want 0", allocs)
	}
}
