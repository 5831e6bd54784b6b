package main

import (
	"fmt"
	"time"

	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/experiment"
	"wadeploy/internal/faults"
)

// adapt runs the online re-placement experiment: the canonical WAN fault
// schedule (or -faults) replayed against a static remote-façade deployment,
// the static-resilience deployment at the target configuration, and the
// controller-driven adaptive deployment, printing the controller's decision
// timeline, adaptation lag, availability during the outage window and the
// steady-state latency before/after the extension program. Output is
// byte-identical at any -parallel setting.
func adapt(app experiment.AppID, cfg core.Policy, epoch time.Duration, opts experiment.RunOptions) error {
	if opts.Schedule == nil {
		opts.Schedule = faults.Canonical(opts.Warmup, opts.Duration)
		opts.Resilience = core.DefaultResilience()
	}
	opts.Adaptive = &controller.Options{Epoch: epoch}
	rep, err := experiment.RunAdapt(app, cfg, opts)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatAdapt(rep))
	return nil
}
