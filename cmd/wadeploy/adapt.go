package main

import (
	"fmt"
	"time"

	"wadeploy/internal/controller"
	"wadeploy/internal/core"
	"wadeploy/internal/experiment"
)

// adapt runs the online re-placement experiment: the canonical WAN fault
// schedule (or -faults) replayed against a static remote-façade deployment,
// the static-resilience deployment at the target configuration, and the
// controller-driven adaptive deployment, printing the controller's decision
// timeline, adaptation lag, availability during the outage window and the
// steady-state latency before/after the extension program. Output is
// byte-identical at any -parallel setting.
func adapt(app experiment.AppID, cfg core.Policy, epoch time.Duration, opts experiment.RunOptions) error {
	opts.Adaptive = &controller.Options{Epoch: epoch}
	rep, err := experiment.RunAdapt(app, cfg, opts)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatAdapt(rep))
	return nil
}
