package sim

import (
	"fmt"

	"repro/internal/schedule"
	"repro/internal/simtime"
)

// RunChunked executes a mini-batch in memory-bounded chunks with a full
// pipeline drain between chunks. This is how GPipe-style schedules run
// large micro-batch counts in practice: all-forward-then-all-backward
// stashes one input activation per in-flight micro-batch, so the
// mini-batch is split into chunks that fit device memory and the
// pipeline flushes between them. Each flush re-pays the fill/drain
// bubble, and on slow networks the per-hop activation latency in the
// fill phase is fully exposed — the mechanism behind GPipe's growing
// gap to Varuna in Table 5.
//
// gen builds the schedule for one chunk (e.g. schedule.GPipe). The
// allreduce and optimizer step are paid once, after the last chunk.
func RunChunked(cfg Config, chunk int, gen func(depth, micros int) (*schedule.Schedule, error)) (Result, error) {
	if chunk < 1 {
		return Result{}, fmt.Errorf("sim: chunk %d < 1", chunk)
	}
	if cfg.Policy.Rule {
		return Result{}, fmt.Errorf("sim: chunked execution needs a strict policy")
	}
	total := Result{}
	remaining := cfg.Micros
	var offset simtime.Time
	var busy simtime.Duration
	for remaining > 0 {
		n := chunk
		if n > remaining {
			n = remaining
		}
		s, err := gen(cfg.Depth, n)
		if err != nil {
			return Result{}, err
		}
		sub := cfg
		sub.Micros = n
		sub.Orders = s.Orders
		res, err := Run(sub)
		if err != nil {
			return Result{}, err
		}
		busy += res.Busy
		for _, span := range res.Trace {
			span.Start = span.Start.Add(simtime.Duration(offset))
			span.End = span.End.Add(simtime.Duration(offset))
			total.Trace = append(total.Trace, span)
		}
		total.OpportunisticRuns += res.OpportunisticRuns
		total.StageEnds = make([]simtime.Time, len(res.StageEnds))
		for i, end := range res.StageEnds {
			total.StageEnds[i] = end.Add(simtime.Duration(offset))
		}
		offset = offset.Add(res.PipelineSpan)
		remaining -= n
	}
	total.PipelineSpan = simtime.Duration(offset)
	// Allreduce and optimizer once, after the final chunk: the slowest
	// stage bounds the tail.
	var tail simtime.Duration
	for s := 0; s < cfg.Depth; s++ {
		t := cfg.Costs[s].AllReduce + cfg.Costs[s].Optimizer
		if cfg.Policy.NoFlush {
			t = cfg.Costs[s].Optimizer
		}
		if t > tail {
			tail = t
		}
	}
	total.Makespan = total.PipelineSpan + tail
	total.Busy = busy
	if total.PipelineSpan > 0 {
		whole := total.PipelineSpan * simtime.Duration(cfg.Depth)
		total.BubbleFrac = 1 - float64(busy)/float64(whole)
	}
	return total, nil
}

// EstimateMakespan predicts the mini-batch time of cfg: the makespan
// of one Run with CollectTrace forced off, whatever the caller's
// Config says.
//
// Every autoconfig candidate is a deterministic config the
// steady-state cycle detector arms for (steadystate.go). There the run
// costs O(warm-up + drain) events regardless of Nm, because the
// detector fast-forwards the periodic middle: the estimate is the
// bit-exact makespan of all Nm micro-batches at a sub-second cost per
// configuration — the §7.2 requirement that the simulator "react to
// change in spot VM availability" in hundreds of milliseconds. Any
// other config pays its full event-driven run.
func EstimateMakespan(cfg Config) (simtime.Duration, error) {
	cfg.CollectTrace = false
	res, err := Run(cfg)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// MakespanLowerBound returns a closed-form value that is never above
// the makespan Run reports for cfg, or 0 when it offers no bound. It
// costs O(P) arithmetic and no simulation, which lets a sweep rule out
// pipeline depths without simulating them.
//
// The bound holds for deterministic rule-policy configs: no jitter, no
// speed factors, no SyncComm and no negative costs, so every task takes
// exactly its mean time and no receive is charged to the stage. Then:
//
//   - Stage s cannot start any task before fill_s, the instant its
//     first activation can arrive: fill_0 = 0 and fill_s = fill_{s−1} +
//     Fwd_{s−1} + ActSend_{s−1}. From there it runs Nm forwards and Nm
//     backwards one at a time, so its last backward ends no earlier
//     than fill_s + Nm·(Fwd_s+Bwd_s).
//   - The backward that ends last on stage s+1 sends a gradient that
//     stage s must receive and backward, so stage s ends no earlier
//     than that plus GradSend_{s+1} + Bwd_s. Taking the larger of the
//     two from the last stage upwards gives L_s ≤ the stage's last
//     backward.
//   - Each stage then pays its allreduce (not under NoFlush) and its
//     optimizer step; the makespan is the latest of those ends.
//
// Recomputes are left out: a stage whose micro-batch is still hot
// skips them. Jittered, slowed, SyncComm and strict-order configs
// return 0 (TestMakespanLowerBoundProperty pins the claim on random
// configs, with and without the steady-state fast path).
func MakespanLowerBound(cfg Config) simtime.Duration {
	p := cfg.Depth
	if !cfg.Policy.Rule || cfg.Policy.SyncComm || cfg.JitterCV != 0 || cfg.ComputeJitterCV != 0 ||
		cfg.SpeedFactor != nil || p < 1 || cfg.Micros < 1 || len(cfg.Costs) != p {
		return 0
	}
	// fill ends up as fill_{P−1}; the backward walk below peels it back
	// one stage at a time, so no per-stage slice is needed.
	var fill simtime.Duration
	for s, c := range cfg.Costs {
		if c.Fwd < 0 || c.Bwd < 0 || c.ActSend < 0 || c.GradSend < 0 || c.AllReduce < 0 || c.Optimizer < 0 {
			return 0
		}
		if s < p-1 {
			fill += c.Fwd + c.ActSend
		}
	}
	nm := simtime.Duration(cfg.Micros)
	var bound, last simtime.Duration
	for s := p - 1; s >= 0; s-- {
		c := cfg.Costs[s]
		l := fill + nm*(c.Fwd+c.Bwd)
		if s < p-1 {
			l = max(l, last+cfg.Costs[s+1].GradSend+c.Bwd)
		}
		tail := c.Optimizer
		if !cfg.Policy.NoFlush {
			tail += c.AllReduce
		}
		bound = max(bound, l+tail)
		last = l
		if s > 0 {
			fill -= cfg.Costs[s-1].Fwd + cfg.Costs[s-1].ActSend
		}
	}
	return bound
}

// GPipeChunk picks the memory-feasible chunk size for GPipe on a device
// with stashBudget bytes available for input-activation stash, given
// the per-micro-batch stash size. It never goes below the pipeline
// depth (GPipe needs at least P micro-batches in flight to fill the
// pipeline).
func GPipeChunk(stashBudget, stashPerMicro int64, depth int) int {
	if stashPerMicro <= 0 {
		return depth
	}
	c := int(stashBudget / stashPerMicro)
	if c < depth {
		c = depth
	}
	return c
}
