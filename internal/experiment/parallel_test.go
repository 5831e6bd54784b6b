package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClampParallelism(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	tests := []struct {
		parallel, n, want int
	}{
		{parallel: 1, n: 5, want: 1},
		{parallel: 2, n: 8, want: 2},
		{parallel: 10, n: 3, want: 3},             // never wider than the job count
		{parallel: 5, n: 1, want: 1},              // single-run fast path
		{parallel: 0, n: procs + 8, want: procs},  // default: one per CPU
		{parallel: -3, n: procs + 8, want: procs}, // negative: same default
	}
	for _, tc := range tests {
		if got := clampParallelism(tc.parallel, tc.n); got != tc.want {
			t.Errorf("clampParallelism(%d, %d) = %d, want %d", tc.parallel, tc.n, got, tc.want)
		}
	}
}

func TestForEachParallelRunsAllJobs(t *testing.T) {
	for _, par := range []int{-1, 0, 1, 2, 7, 64} {
		const n = 20
		var ran [n]atomic.Int32
		err := forEachParallel(par, n, func(i int) error {
			ran[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("parallel=%d: job %d ran %d times, want 1", par, i, got)
			}
		}
	}
}

func TestForEachParallelZeroJobs(t *testing.T) {
	if err := forEachParallel(4, 0, func(int) error {
		t.Error("job ran for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestForEachParallelSequentialStopsAtFirstError pins the parallel==1 fast
// path: it must behave exactly like the old sequential loop, returning the
// first error unwrapped and never starting later jobs.
func TestForEachParallelSequentialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var started int
	err := forEachParallel(1, 10, func(i int) error {
		started++
		if i == 3 {
			return boom
		}
		return nil
	})
	if err != boom { //nolint:errorlint // fast path returns the error itself
		t.Errorf("got error %v, want boom unwrapped", err)
	}
	if started != 4 {
		t.Errorf("sequential path started %d jobs, want 4 (0..3)", started)
	}
}

// TestForEachParallelFirstErrorCancels verifies prompt cancellation: after a
// job fails, workers stop pulling new jobs, so most of a long queue is never
// started even though in-flight jobs run to completion.
func TestForEachParallelFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	const n, par = 64, 4
	var started atomic.Int32
	err := forEachParallel(par, n, func(i int) error {
		started.Add(1)
		if i == 0 {
			return boom // fail immediately on the first job
		}
		time.Sleep(20 * time.Millisecond) // hold the other workers in flight
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("got error %v, want it to wrap boom", err)
	}
	// Worst case: all par workers claimed a job before the failure landed,
	// plus one extra claim per worker racing the stop flag.
	if got := started.Load(); got > 2*par {
		t.Errorf("%d jobs started after first error, want <= %d", got, 2*par)
	}
}

// TestForEachParallelAggregatesErrors verifies that concurrent failures are
// all reported, joined in job-index order. A barrier makes every job start
// before any fails, so all three errors are deterministically observed.
func TestForEachParallelAggregatesErrors(t *testing.T) {
	const n = 3
	var barrier sync.WaitGroup
	barrier.Add(n)
	err := forEachParallel(n, n, func(i int) error {
		barrier.Done()
		barrier.Wait() // all jobs in flight before the first failure lands
		return fmt.Errorf("job %d failed", i)
	})
	if err == nil {
		t.Fatal("want error, got nil")
	}
	want := "job 0 failed\njob 1 failed\njob 2 failed"
	if got := err.Error(); got != want {
		t.Errorf("aggregated error = %q, want %q (index order)", got, want)
	}
}
