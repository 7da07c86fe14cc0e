// Spotmarket: ride a volatile spot-VM fleet for 24 hours (the Figure 8
// scenario). The Varuna manager detects preemptions through missed
// heartbeats, flags fail-stutter VMs, rolls back to the last
// checkpoint when work is lost, and morphs the (P, D) configuration so
// per-GPU throughput stays level while the fleet swings. The market
// carries a spot price curve, so the run is also metered in dollars —
// compute vs reconfiguration downtime vs idle capacity.
//
// The run is an inline scenario: the same document, saved to a file,
// replays with `varuna-sim run <file>`.
package main

import (
	"fmt"
	"log"

	"repro/internal/scenario"
)

// spotRun is a spot market with ~120 spare GPUs on average, swinging
// over an 8-hour datacenter load cycle, priced by a mean-reverting spot
// curve around $2.40/GPU·h. The manager measures on the job's own
// testbed and seeds its morph-or-hold horizon from the market's
// analytic hazard.
const spotRun = `
version: 1
name: spotmarket
description: 24 hours of GPT-2 2.5B on priced spot 1-GPU VMs

job:
  model: GPT2-2.5B
  vm-gpus: 1
  cluster-gpus: 150
  batch: 8192
  seed: 5

market:
  base-capacity: 120
  seed: 11

run:
  target-gpus: 150
  horizon: 24h
  manager-seed: 13
  testbed: job
  gap-prior: market

prices:
  kind: mean-reverting
  mean: 2.40
  vol: 0.18
  reversion: 0.12
  seed: 12
`

func main() {
	sc, err := scenario.Parse([]byte(spotRun))
	if err != nil {
		log.Fatal(err)
	}
	res, err := scenario.Run(sc, "")
	if err != nil {
		log.Fatal(err)
	}
	points, stats := res.Points, res.Stats

	fmt.Printf("24 hours of %s on spot 1-GPU VMs (target %d GPUs)\n\n", res.Compiled.Job.Spec.Name, sc.Run.TargetGPUs)
	fmt.Printf("%-7s %-5s %-9s %-11s %-9s %s\n", "time", "GPUs", "config", "total ex/s", "per-GPU", "event")
	for _, p := range points {
		if p.Config.GPUsUsed == 0 {
			fmt.Printf("%-7s %-5d %-9s %-11s %-9s %s\n",
				fmt.Sprintf("%.1fh", p.At.Hours()), p.GPUs, "-", "-", "-", p.Event)
			continue
		}
		fmt.Printf("%-7s %-5d %-9s %-11.1f %-9.2f %s\n",
			fmt.Sprintf("%.1fh", p.At.Hours()), p.GPUs,
			fmt.Sprintf("%dx%d", p.Config.P, p.Config.D),
			p.ExPerSec, p.ExPerSec/float64(p.Config.GPUsUsed), p.Event)
	}
	fmt.Printf("\nsummary: %.1fM examples in %d mini-batches\n", stats.Examples/1e6, stats.MiniBatches)
	fmt.Printf("  %d morphs, %d replacement events, %d preemptions, %d allocations\n",
		stats.Morphs, stats.Replacements, stats.Preemptions, stats.Allocations)
	fmt.Printf("  %d checkpoints, %d mini-batches rolled back, %d stragglers excluded, %v downtime\n",
		stats.Checkpoints, stats.LostMiniBatches, stats.StragglersExcluded, stats.Downtime)
	fmt.Printf("  $%.2f spent ($%.2f compute, $%.2f reconfig, $%.2f idle) — $%.2f per 1k examples\n",
		stats.DollarsSpent, stats.DollarsCompute, stats.DollarsReconfig, stats.DollarsIdle,
		1000*stats.DollarsPerExample())
}
