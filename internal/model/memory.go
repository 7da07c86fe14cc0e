package model

// GPU memory accounting for a pipeline stage, following §2 ("a model
// with N parameters will need up to 16·N bytes of memory to store
// parameters and optimizer state") and §3.1 (activations are
// recomputed; only each micro-batch's input activation is stashed).

// MemoryModel estimates the device-memory footprint of running one
// pipeline stage.
type MemoryModel struct {
	// Spec is the partitioned model.
	Spec *Spec
	// Stage is the stage being placed.
	Stage Stage
	// WeightCopies is the number of full parameter copies the system
	// keeps: 1 for sync-SGD systems (Varuna, GPipe), 2 for
	// PipeDream-2BW, P (pipeline depth) for PipeDream.
	WeightCopies int
	// OffloadOptimizer moves optimizer state to host memory (used by
	// the 200B run, §7.1.1), leaving only fp16 params + grads on GPU.
	OffloadOptimizer bool
	// StoreAllActivations marks systems without activation
	// checkpointing between flushes (PipeDream): every in-flight
	// micro-batch stashes the stage's full activation set, not just
	// its input.
	StoreAllActivations bool
}

// stashFactor is the number of in-flight micro-batch input activations
// a stage must hold in the worst case under Varuna's schedule: bounded
// by pipeline depth for early stages, but never more than Nm.
func stashFactor(stageIdx, depth, nm int) int {
	inFlight := depth - stageIdx
	if inFlight > nm {
		inFlight = nm
	}
	if inFlight < 1 {
		inFlight = 1
	}
	return inFlight
}

// workingActivationBytes is the peak intra-stage activation memory of
// one micro-batch during forward or recompute: with gradient
// checkpointing only one op's working set plus the stage input live at
// once, so it is bounded by the largest op boundary in the stage.
func (mm MemoryModel) workingActivationBytes(m int) int64 {
	var max int64
	for j := mm.Stage.FirstOp; j <= mm.Stage.LastOp; j++ {
		if b := mm.Spec.Ops[j].OutBytes; b > max {
			max = b
		}
	}
	return max * int64(m)
}

// BytesNeeded estimates the stage's GPU memory demand for micro-batch
// size m with nm micro-batches and pipeline depth p.
func (mm MemoryModel) BytesNeeded(m, nm, p int) int64 {
	params := mm.Stage.Params

	var state int64
	if mm.OffloadOptimizer {
		// fp16 params + fp16 grads resident; fp32 state in host RAM.
		state = params * 4
	} else {
		state = params * BytesPerParamState
	}
	if mm.WeightCopies > 1 {
		// Extra full fp16 weight copies (PipeDream keeps P, 2BW keeps 2).
		state += params * BytesPerParam * int64(mm.WeightCopies-1)
	}

	// Stashed activations for in-flight micro-batches: just the stage
	// input under gradient checkpointing, or the full per-op
	// activation set for systems that never recompute (PipeDream).
	perMicro := mm.Spec.BlockActivationBytes()
	if mm.StoreAllActivations {
		perMicro = 0
		for j := mm.Stage.FirstOp; j <= mm.Stage.LastOp; j++ {
			perMicro += mm.Spec.Ops[j].OutBytes
		}
	}
	stash := perMicro * int64(m) * int64(stashFactor(mm.Stage.Index, p, nm))

	// Working set of the pass currently executing (2x: one being
	// computed, one being received/sent).
	working := 2 * mm.workingActivationBytes(m)

	// CUDA context, framework overhead, fragmentation reserve.
	const overhead = int64(1) << 30

	return state + stash + working + overhead
}

// Fits reports whether the stage fits in gpuMem bytes.
func (mm MemoryModel) Fits(m, nm, p int, gpuMem int64) bool {
	return mm.BytesNeeded(m, nm, p) <= gpuMem
}
