package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostSnap is one reading of every host-side meter the harness uses. Two
// readings bracket a timed region; the wall clock is read last on entry and
// first on exit so it brackets the region most tightly.
type hostSnap struct {
	wall       time.Time
	cpu        time.Duration // process user+sys, getrusage
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	gcCPU      float64 // seconds, runtime/metrics cpu classes
	totalCPU   float64
}

var cpuClassSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuClassSamples)
	s := hostSnap{
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
		cpu:        processCPU(),
	}
	if v := cpuClassSamples[0].Value; v.Kind() == metrics.KindFloat64 {
		s.gcCPU = v.Float64()
	}
	if v := cpuClassSamples[1].Value; v.Kind() == metrics.KindFloat64 {
		s.totalCPU = v.Float64()
	}
	s.wall = time.Now()
	return s
}

// hostDelta is what one timed region cost the host.
type hostDelta struct {
	Wall       time.Duration
	CPU        time.Duration
	Mallocs    uint64
	TotalAlloc uint64
	GCCycles   uint32
	GCPause    time.Duration
	GCCPUShare float64
}

func (a hostSnap) until(end time.Time, b hostSnap) hostDelta {
	return hostDelta{
		Wall:       end.Sub(a.wall),
		CPU:        b.cpu - a.cpu,
		Mallocs:    b.mallocs - a.mallocs,
		TotalAlloc: b.totalAlloc - a.totalAlloc,
		GCCycles:   b.numGC - a.numGC,
		GCPause:    time.Duration(b.pauseNs - a.pauseNs),
		GCCPUShare: ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero reading
	// would show as a zero metric, which the gate rejects.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// manifest records what a result file was measured on.
type manifest struct {
	GitRevision string `json:"git_revision"`
	GoVersion   string `json:"go_version"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Seed        int64  `json:"seed"`
	RunSeconds  int    `json:"run_seconds"`
	Smoke       bool   `json:"smoke,omitempty"`
	// Valid is false when the host has fewer CPUs than the harness pins
	// GOMAXPROCS to: host-time numbers from such a run are not comparable.
	Valid bool `json:"valid"`
}

func newManifest(rev string, seed int64, seconds int, smoke bool) manifest {
	if rev == "" {
		rev = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					rev = s.Value
				}
			}
		}
	}
	return manifest{
		GitRevision: rev,
		GoVersion:   runtime.Version(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        seed,
		RunSeconds:  seconds,
		Smoke:       smoke,
		Valid:       runtime.NumCPU() >= pinnedProcs,
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
