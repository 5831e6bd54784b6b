package experiment

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"wadeploy/internal/core"
)

// TestMetricsSnapshotDeterminism: the same seed must produce a byte-identical
// registry snapshot, including the sampled time series — the property the
// -metrics-out flag relies on.
func TestMetricsSnapshotDeterminism(t *testing.T) {
	s := Spec{
		App:         PetStore,
		Policy:      core.QueryCaching,
		MetricsTick: 15 * time.Second,
		RunOptions:  RunOptions{Seed: 7, Warmup: 10 * time.Second, Duration: time.Minute},
	}
	run := func() []byte {
		r, err := Run(s)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if r.Metrics == nil || len(r.Metrics.Counters) == 0 {
			t.Fatal("run returned no metrics snapshot")
		}
		data, err := json.Marshal(r.Metrics)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ between same-seed runs:\n%s\nvs\n%s", a, b)
	}
}

// TestMetricsTickSampling: with a tick configured, counters carry series
// points; without one, no series memory is spent.
func TestMetricsTickSampling(t *testing.T) {
	s := Spec{App: PetStore, Policy: core.Centralized, RunOptions: RunOptions{Seed: 1, Warmup: 10 * time.Second, Duration: time.Minute}}
	plain, err := Run(s)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, c := range plain.Metrics.Counters {
		if len(c.Series) != 0 {
			t.Fatalf("counter %s has %d series points without MetricsTick", c.Name, len(c.Series))
		}
	}
	s.MetricsTick = 20 * time.Second
	ticked, err := Run(s)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	found := false
	for _, c := range ticked.Metrics.Counters {
		if c.Name == "simnet_messages_total" {
			found = true
			// 70s run, 20s tick: samples at 20/40/60s.
			if len(c.Series) != 3 {
				t.Fatalf("simnet_messages_total series has %d points, want 3", len(c.Series))
			}
			if c.Series[0].T != 20*time.Second {
				t.Fatalf("first sample at %v, want 20s", c.Series[0].T)
			}
		}
	}
	if !found {
		t.Fatal("web_requests_total not in snapshot")
	}
}
