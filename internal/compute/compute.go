// Package compute models GPU kernel execution time for pipeline stages.
// Forward time follows the standard flops accounting (≈2 FLOPs per
// parameter per token), backward is twice forward, and recompute equals
// forward (§2: gradient checkpointing "adds about 33% overhead").
// Achieved efficiency rises with micro-batch size and saturates, which
// reproduces the paper's observation that in BERT-large m=8 performs
// ≈26% better per example than m=4 (§4.1).
package compute

import (
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/simtime"
)

// CostModel converts stage work into kernel time on a given GPU.
type CostModel struct {
	// GPU is the device executing the work.
	GPU hw.GPU
	// MaxEfficiency is the fraction of peak flops achieved by large,
	// well-shaped kernels. ~0.45 is typical for fp16 transformers on V100.
	MaxEfficiency float64
	// HalfSatBatch is the micro-batch size at which efficiency reaches
	// half of MaxEfficiency.
	HalfSatBatch float64
	// LaunchOverhead is fixed per-task overhead (kernel launches,
	// optimizer glue) added to every forward/backward/recompute call.
	LaunchOverhead simtime.Duration
	// IntraLayerPenalty scales efficiency down when a layer's matmuls
	// are split across devices (tensor parallelism shrinks the
	// per-device GEMM). 1.0 means no split.
	IntraLayerPenalty float64
}

// Default is the calibrated V100 cost model used across experiments.
func Default() CostModel {
	return CostModel{
		GPU:               hw.V100,
		MaxEfficiency:     0.45,
		HalfSatBatch:      2.0,
		LaunchOverhead:    300 * simtime.Microsecond,
		IntraLayerPenalty: 1.0,
	}
}

// Efficiency reports achieved fraction of peak flops at micro-batch
// size m.
func (c CostModel) Efficiency(m int) float64 {
	if m < 1 {
		m = 1
	}
	eff := c.MaxEfficiency * float64(m) / (float64(m) + c.HalfSatBatch)
	if c.IntraLayerPenalty > 0 && c.IntraLayerPenalty < 1 {
		eff *= c.IntraLayerPenalty
	}
	return eff
}

// RawKernelTime converts a flop count into kernel time at micro-batch
// size m, with no launch overhead — the quantity a profiler isolates.
func (c CostModel) RawKernelTime(flops float64, m int) simtime.Duration {
	eff := c.Efficiency(m)
	sec := flops / (c.GPU.PeakFlops * eff)
	return simtime.FromSeconds(sec)
}

// timeForFlops converts a flop count into kernel time.
func (c CostModel) timeForFlops(flops float64, m int) simtime.Duration {
	return c.RawKernelTime(flops, m) + c.LaunchOverhead
}

// Forward reports the forward-pass time of a stage for one micro-batch
// of size m.
func (c CostModel) Forward(st model.Stage, m int) simtime.Duration {
	return c.timeForFlops(st.FwdFlops*float64(m), m)
}

// Backward reports the backward-pass time (2× forward compute).
func (c CostModel) Backward(st model.Stage, m int) simtime.Duration {
	return c.timeForFlops(2*st.FwdFlops*float64(m), m)
}

// Recompute reports the activation-recomputation time, equal to the
// forward pass (§3.1).
func (c CostModel) Recompute(st model.Stage, m int) simtime.Duration {
	return c.Forward(st, m)
}

// OptimizerStep reports the weight-update time for a stage: an
// element-wise pass over parameters and optimizer state, memory-bound.
// With hostOffload the state crosses PCIe both ways (the 200B
// configuration, §7.1.1).
func (c CostModel) OptimizerStep(st model.Stage, hostOffload bool) simtime.Duration {
	return c.OptimizerForParams(st.Params, hostOffload)
}

// OptimizerForParams reports the weight-update time for n parameters.
func (c CostModel) OptimizerForParams(n int64, hostOffload bool) simtime.Duration {
	bytes := float64(n) * model.BytesPerParamState
	// On-device HBM sweep at ~900 GB/s read+write.
	t := simtime.FromSeconds(2 * bytes / 900e9)
	if hostOffload {
		// Round trip over PCIe at ~12 GB/s.
		t += simtime.FromSeconds(2 * bytes / 12e9)
	}
	return t + c.LaunchOverhead
}
