package engine

import "repro/internal/nn"

// batch generates the global mini-batch for the current step. The
// content is a function of (DataSeed, step) only — never of the
// topology — so two engines with different (P, D, m) see byte-identical
// data, which is what makes the morphing-invariance property testable.
//
// The synthetic corpus is a noisy affine token chain: the next token is
// (7·t + 3) mod V with probability 0.9 and uniform otherwise. A small
// transformer learns it quickly, giving convergence curves with clear
// signal (the Figure 9 substitution).
//
// The batch is drawn into the engine's kept matrices, overwriting the
// last one, from the engine's source reseeded as a fresh one would be.
func (e *Engine) batch() (inputs, targets *nn.Matrix) {
	b := e.cfg.BatchSize
	t := e.cfg.GPT.SeqLen
	v := e.cfg.GPT.Vocab
	if e.inputs == nil {
		e.inputs, e.targets = nn.NewMatrix(b, t), nn.NewMatrix(b, t)
	}
	inputs, targets = e.inputs, e.targets
	rng := e.rng
	rng.Seed(e.cfg.DataSeed ^ int64(e.step)*0x9e3779b9)
	for i := 0; i < b; i++ {
		tok := rng.Intn(v)
		for j := 0; j < t; j++ {
			inputs.Set(i, j, float64(tok))
			next := (7*tok + 3) % v
			if rng.Float64() < 0.1 {
				next = rng.Intn(v)
			}
			targets.Set(i, j, float64(next))
			tok = next
		}
	}
	return inputs, targets
}

// Eval reports the mean loss over nBatches held-out batches without
// touching gradients or the step counter. The held-out stream is
// seeded away from the training stream.
func (e *Engine) Eval(nBatches int) float64 {
	saveStep := e.step
	defer func() { e.step = saveStep }()
	var sum float64
	for k := 0; k < nBatches; k++ {
		e.step = -(k + 1) // negative steps → disjoint from training data
		inputs, targets := e.batch()
		sum += e.evalBatch(inputs, targets)
	}
	return sum / float64(nBatches)
}

// evalBatch runs a pure forward pass on replica 0's full pipeline,
// MicroBatch sequences at a time, through the layers' training buffers.
// Every forward op is local to a row or to one example, and the loss
// sums its rows in order across the chunks, so the mean has the bits of
// one pass over the whole batch.
func (e *Engine) evalBatch(inputs, targets *nn.Matrix) float64 {
	m := e.cfg.MicroBatch
	var loss float64
	for lo := 0; lo < inputs.Rows; lo += m {
		h := sliceRows(inputs, lo, m)
		for _, st := range e.replicas[0] {
			for _, l := range st.layers {
				h, _ = l.Forward(h)
			}
		}
		loss = nn.SoftmaxCrossEntropy(loss, h, sliceRows(targets, lo, m), nil, 0)
	}
	return loss / float64(inputs.Rows*inputs.Cols)
}
