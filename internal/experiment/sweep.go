package experiment

import (
	"fmt"
	"strings"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/simnet"
)

// SweepPoint is one measurement of a sensitivity sweep.
type SweepPoint struct {
	X             float64 // the swept parameter (WAN one-way ms, or offered load req/s)
	LocalBrowser  time.Duration
	RemoteBrowser time.Duration
	LocalWriter   time.Duration
	RemoteWriter  time.Duration
}

// point converts a run's session means into a sweep point.
func point(r *Result, x float64) SweepPoint {
	browser, writer := apps[r.App].patterns[0], apps[r.App].patterns[1]
	return SweepPoint{
		X:             x,
		LocalBrowser:  r.SessionMeans[browser][true],
		RemoteBrowser: r.SessionMeans[browser][false],
		LocalWriter:   r.SessionMeans[writer][true],
		RemoteWriter:  r.SessionMeans[writer][false],
	}
}

// LatencySweep measures session response times as the WAN one-way latency
// varies — how each configuration's benefit scales with network distance
// (not a paper experiment; a sensitivity study over its fixed 100 ms point).
func LatencySweep(app AppID, cfg core.Policy, oneWays []time.Duration, opts RunOptions) ([]SweepPoint, error) {
	// Validate every point before launching workers so bad input fails the
	// same way regardless of parallelism.
	for _, wan := range oneWays {
		if wan <= 0 {
			return nil, fmt.Errorf("experiment: non-positive WAN latency %v", wan)
		}
	}
	out := make([]SweepPoint, len(oneWays))
	err := forEachParallel(opts.Parallelism, len(oneWays), func(i int) error {
		wan := oneWays[i]
		// Any server-to-server path crosses both router legs.
		leg := simnet.LinkClass{OneWay: wan / 2}
		r, _, err := run(app, cfg, opts, simnet.HierarchySpec{Backbone: leg, Metro: leg}, 1)
		if err != nil {
			return fmt.Errorf("latency sweep %v: %w", wan, err)
		}
		out[i] = point(r, float64(wan)/float64(time.Millisecond))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LoadSweep measures session response times as the offered load scales
// around the paper's 30 req/s operating point, exposing where CPU queueing
// begins to dominate.
func LoadSweep(app AppID, cfg core.Policy, scales []float64, opts RunOptions) ([]SweepPoint, error) {
	for _, s := range scales {
		if s <= 0 {
			return nil, fmt.Errorf("experiment: non-positive load scale %v", s)
		}
	}
	out := make([]SweepPoint, len(scales))
	err := forEachParallel(opts.Parallelism, len(scales), func(i int) error {
		s := scales[i]
		r, _, err := run(app, cfg, opts, simnet.HierarchySpec{}, s)
		if err != nil {
			return fmt.Errorf("load sweep %v: %w", s, err)
		}
		out[i] = point(r, 30*s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatSweep renders sweep points as an aligned table.
func FormatSweep(xLabel string, points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %12s\n",
		xLabel, "loc-browse", "rem-browse", "loc-write", "rem-write")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-14.1f %12s %12s %12s %12s\n", pt.X,
			ms(pt.LocalBrowser), ms(pt.RemoteBrowser), ms(pt.LocalWriter), ms(pt.RemoteWriter))
	}
	return b.String()
}
