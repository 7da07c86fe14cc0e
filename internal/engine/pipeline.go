package engine

import (
	"repro/internal/nn"
)

// Messages between pipeline stages.
type fwdMsg struct {
	micro int
	x     *nn.Matrix
}

type bwdMsg struct {
	micro int
	dy    *nn.Matrix
}

// runPipeline streams nm micro-batches through this replica's stage
// goroutines and returns the replica's examples-weighted mean loss.
// Gradients accumulate into the stages' params; the caller reduces and
// applies them.
//
// Stage behaviour follows Varuna's memory discipline: non-final stages
// stash only their micro-batch *input* and drop forward contexts
// (gradient checkpointing); before a backward they recompute the
// forward from the stash (§3.1). The final stage backwards each
// micro-batch straight after its forward, so it never recomputes
// (§3.2). Backwards are preferred over forwards whenever both are
// pending (rule 3), which also bounds the stash. StalePerMicro is the
// exception; see runMidStage.
func (e *Engine) runPipeline(stages []*stage, inputs, targets *nn.Matrix, nm int) float64 {
	p := len(stages)
	m := e.cfg.MicroBatch

	actCh := make([]chan fwdMsg, p+1)
	gradCh := make([]chan bwdMsg, p)
	for i := range actCh {
		actCh[i] = make(chan fwdMsg, nm)
	}
	for i := range gradCh {
		gradCh[i] = make(chan bwdMsg, nm)
	}

	// Feed the first stage.
	go func() {
		for k := 0; k < nm; k++ {
			actCh[0] <- fwdMsg{micro: k, x: sliceRows(inputs, k*m, m)}
		}
	}()

	lossCh := make(chan float64, 1)
	stageDone := make(chan struct{}, p)
	for s := 0; s < p; s++ {
		s := s
		go func() {
			if s == p-1 {
				lossCh <- e.runLastStage(stages[s], actCh[s], gradCh[s], targets, nm)
			} else {
				e.runMidStage(stages[s], actCh[s], actCh[s+1], gradCh[s], gradCh[s+1], nm)
			}
			stageDone <- struct{}{}
		}()
	}
	loss := <-lossCh
	for s := 0; s < p; s++ {
		<-stageDone
	}
	return loss
}

// runMidStage executes a non-final stage: forward with checkpointing,
// recompute-then-backward, backward-first scheduling.
//
// Under StalePerMicro every backward updates the stage's weights, so
// which weights a forward reads depends on how many backwards ran
// before it. Backward-first would leave that to goroutine timing, so
// there the stage runs a fixed order instead: all nm forwards, then
// all nm backwards — the most staleness backward-first can reach.
func (e *Engine) runMidStage(st *stage, actIn, actOut chan fwdMsg, gradOut, gradIn chan bwdMsg, nm int) {
	stash := make(map[int]*nn.Matrix)
	forward := func(f fwdMsg) {
		stash[f.micro] = f.x
		actOut <- fwdMsg{micro: f.micro, x: stageForward(st, f.x)}
	}
	if e.cfg.Mode == StalePerMicro {
		for k := 0; k < nm; k++ {
			forward(<-actIn)
		}
		for k := 0; k < nm; k++ {
			e.stageBackward(st, stash, <-gradIn, gradOut)
		}
		return
	}
	fwdDone, bwdDone := 0, 0
	for bwdDone < nm {
		// Rule 3: drain ready backwards first.
		select {
		case g := <-gradIn:
			e.stageBackward(st, stash, g, gradOut)
			bwdDone++
			continue
		default:
		}
		if fwdDone < nm {
			select {
			case g := <-gradIn:
				e.stageBackward(st, stash, g, gradOut)
				bwdDone++
			case f := <-actIn:
				forward(f)
				fwdDone++
			}
		} else {
			g := <-gradIn
			e.stageBackward(st, stash, g, gradOut)
			bwdDone++
		}
	}
}

// runLastStage executes the final stage: forward, loss, immediate
// backward (activations still hot — no recompute), returning the
// examples-weighted mean loss.
func (e *Engine) runLastStage(st *stage, actIn chan fwdMsg, gradOut chan bwdMsg, targets *nn.Matrix, nm int) float64 {
	m := e.cfg.MicroBatch
	var lossSum float64
	for done := 0; done < nm; done++ {
		f := <-actIn
		h := f.x
		ctxs := make([]nn.Ctx, len(st.layers))
		for i, l := range st.layers {
			h, ctxs[i] = l.Forward(h)
		}
		tgt := sliceRows(targets, f.micro*m, m)
		loss, dl := nn.SoftmaxCrossEntropy(h, tgt, e.cfg.BatchSize)
		lossSum += loss
		dy := dl
		for i := len(st.layers) - 1; i >= 0; i-- {
			dy = st.layers[i].Backward(ctxs[i], dy)
		}
		if st.idx > 0 {
			gradOut <- bwdMsg{micro: f.micro, dy: dy}
		}
		if e.cfg.Mode == StalePerMicro {
			st.opt.Step(st.params)
		}
	}
	return lossSum / float64(nm)
}

// stageBackward recomputes the stage's forward from the stashed input,
// then backpropagates, releasing the stash slot.
func (e *Engine) stageBackward(st *stage, stash map[int]*nn.Matrix, g bwdMsg, gradOut chan bwdMsg) {
	x := stash[g.micro]
	delete(stash, g.micro)
	// Recompute: rebuild contexts from the stashed input (§3.1).
	h := x
	ctxs := make([]nn.Ctx, len(st.layers))
	for i, l := range st.layers {
		h, ctxs[i] = l.Forward(h)
	}
	dy := g.dy
	for i := len(st.layers) - 1; i >= 0; i-- {
		dy = st.layers[i].Backward(ctxs[i], dy)
	}
	if st.idx > 0 {
		gradOut <- bwdMsg{micro: g.micro, dy: dy}
	}
	if e.cfg.Mode == StalePerMicro {
		st.opt.Step(st.params)
	}
}

// stageForward runs the stage's layers and drops their contexts: a
// checkpointed stage recomputes them before its backward.
func stageForward(st *stage, x *nn.Matrix) *nn.Matrix {
	h := x
	for _, l := range st.layers {
		h, _ = l.Forward(h)
	}
	return h
}
