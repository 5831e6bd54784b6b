// Failover: the availability claim from the paper's introduction — edge
// deployment improves service availability because cached components keep
// serving clients when the WAN path to the main server fails.
//
// We deploy Pet Store in the query-caching configuration with the default
// resilience policies (retries, circuit breaker, serve-stale caches), arm a
// scripted WAN outage on edge1's uplink through internal/faults, and show
// that edge1's clients still browse during the outage (read-only beans and
// query caches answer locally) while buyer commits — which need the central
// read-write beans — degrade as expected until the link recovers.
//
// Expected degradation (buyer pages failing mid-outage) is reported as such;
// the example only exits non-zero on unexpected failures, e.g. a browse page
// failing while the edge caches should be carrying it.
package main

import (
	"fmt"
	"os"
	"time"

	"wadeploy/internal/core"
	"wadeploy/internal/faults"
	"wadeploy/internal/petstore"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/workload"
)

const (
	outageAt  = 20 * time.Second
	outageLen = 40 * time.Second
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}

func run() error {
	const seed = 11
	env := sim.NewEnv(seed)
	copts := core.DefaultOptions()
	copts.Resilience = true
	d, err := core.NewPaperDeployment(env, copts)
	if err != nil {
		return err
	}
	app, err := petstore.Deploy(d, core.QueryCaching)
	if err != nil {
		return err
	}

	// One scripted outage: edge1 loses its WAN uplink, edge2 and the main
	// site stay healthy.
	schedule := &faults.Schedule{
		Name: "edge1-outage",
		Events: []faults.Event{
			{Kind: faults.LinkDown, A: simnet.NodeEdge1, B: simnet.NodeRouter, At: outageAt, Duration: outageLen},
		},
	}
	if err := faults.Arm(d.Net, schedule, seed); err != nil {
		return err
	}

	request := app.RequestFunc()
	client := workload.Client{Node: simnet.NodeClientsEdge1, ID: "edge1-client"}

	browse := []workload.Step{
		{Page: petstore.PageMain},
		{Page: petstore.PageCategory, Params: map[string]string{"cat": petstore.CategoryID(2)}},
		{Page: petstore.PageItem, Params: map[string]string{"item": petstore.ItemID(2, 2, 2)}},
	}
	user := petstore.UserID(3)
	buy := []workload.Step{
		{Page: petstore.PageSignin},
		{Page: petstore.PageVerifySignin, Params: map[string]string{"user": user, "password": "pw-" + user}},
		{Page: petstore.PageCart, Params: map[string]string{"item": petstore.ItemID(2, 2, 2)}},
		{Page: petstore.PageCommit},
	}

	// Unexpected failures fail the example; expected degradation (buyer
	// pages needing the main server mid-outage) is only reported.
	var unexpected []string
	env.Spawn("failover", func(p *sim.Proc) {
		exercise := func(phase string, outage bool) {
			fmt.Printf("--- %s\n", phase)
			for _, step := range browse {
				rt, err := request(p, client, step)
				if err != nil {
					// Browse must survive the outage on the edge caches.
					unexpected = append(unexpected, fmt.Sprintf("%s: browse %s failed: %v", phase, step.Page, err))
					fmt.Printf("  %-14s FAILED (unexpected): %v\n", step.Page, err)
					continue
				}
				fmt.Printf("  %-14s %8v\n", step.Page, rt.Round(time.Millisecond))
			}
			for _, step := range buy {
				rt, err := request(p, client, step)
				switch {
				case err == nil:
					fmt.Printf("  %-14s %8v\n", step.Page, rt.Round(time.Millisecond))
				case outage:
					fmt.Printf("  %-14s DEGRADED (expected: needs the main server)\n", step.Page)
				default:
					unexpected = append(unexpected, fmt.Sprintf("%s: %s failed: %v", phase, step.Page, err))
					fmt.Printf("  %-14s FAILED (unexpected): %v\n", step.Page, err)
				}
			}
		}
		// Warm caches while healthy.
		exercise("WAN link up", false)
		p.Sleep(outageAt + outageLen/2 - p.Now())
		exercise("WAN link DOWN: browsing survives on edge caches", true)
		p.Sleep(outageAt + outageLen + 15*time.Second - p.Now())
		exercise("WAN link recovered", false)
	})
	env.RunAll()
	env.Close()

	reg := env.Metrics()
	fmt.Println("--- resilience counters")
	for _, name := range []string{
		"rmi_breaker_fastfail_total",
		"rmi_retries_total",
		"container_stale_serves_total",
		"container_sync_push_skipped_total",
	} {
		fmt.Printf("  %-36s %d\n", name, reg.CounterValue(name))
	}

	if len(unexpected) > 0 {
		for _, u := range unexpected {
			fmt.Fprintln(os.Stderr, "unexpected:", u)
		}
		return fmt.Errorf("%d unexpected failure(s)", len(unexpected))
	}
	return nil
}
