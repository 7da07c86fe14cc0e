package engine

import (
	"fmt"
	"sync"

	"repro/internal/nn"
)

// pipe is one replica's stage hand-offs, kept across steps and
// allocated at the first Step. The messages between stages carry only a
// micro-batch index k; the data sits in slots. Stage s reads micro-batch
// k's input from in[s][k] once k arrives on fwd[s], and, below the last
// stage, its output gradient from dy[s][k] once k arrives on bwd[s].
// Stage 0's inputs and the targets are views of the engine's kept
// batch. Every other slot is written once per step, by the stage that
// sends its index, which copies its last layer's output or its first
// layer's input gradient in: the layer overwrites its own at its next
// call. A slot is read until the step ends, so in[s][k] is also the
// stash from which stage s recomputes micro-batch k's forward (§3.1).
type pipe struct {
	in, dy   [][]*nn.Matrix // [stage][micro]
	targets  []*nn.Matrix   // [micro]
	fwd, bwd []chan int     // [stage]
	dl       *nn.Matrix     // the last stage's loss gradient
}

// newPipe allocates replica r's pipe over p stages.
func (e *Engine) newPipe(r, p int) *pipe {
	m := e.cfg.MicroBatch
	perReplica := e.cfg.BatchSize / e.cfg.D
	nm := perReplica / m
	rows, dim := m*e.cfg.GPT.SeqLen, e.cfg.GPT.Dim
	pp := &pipe{
		in:      make([][]*nn.Matrix, p),
		dy:      make([][]*nn.Matrix, p-1),
		targets: make([]*nn.Matrix, nm),
		fwd:     make([]chan int, p),
		bwd:     make([]chan int, p-1),
		dl:      nn.NewMatrix(rows, e.cfg.GPT.Vocab),
	}
	for s := range pp.in {
		pp.in[s] = make([]*nn.Matrix, nm)
		pp.fwd[s] = make(chan int, nm)
	}
	for s := range pp.dy {
		pp.dy[s] = make([]*nn.Matrix, nm)
		pp.bwd[s] = make(chan int, nm)
	}
	for k := 0; k < nm; k++ {
		lo := r*perReplica + k*m
		pp.in[0][k] = sliceRows(e.inputs, lo, m)
		pp.targets[k] = sliceRows(e.targets, lo, m)
		for s := 1; s < p; s++ {
			pp.in[s][k] = nn.NewMatrix(rows, dim)
		}
		for s := range pp.dy {
			pp.dy[s][k] = nn.NewMatrix(rows, dim)
		}
	}
	return pp
}

// fill copies a layer-owned result into its slot.
func fill(slot, src *nn.Matrix) {
	if slot.Rows != src.Rows || slot.Cols != src.Cols {
		panic(fmt.Sprintf("engine: %dx%d result for a %dx%d slot", src.Rows, src.Cols, slot.Rows, slot.Cols))
	}
	copy(slot.Data, src.Data)
}

// runPipeline streams the step's micro-batches through this replica's
// stage goroutines and returns the replica's examples-weighted mean
// loss. Gradients accumulate into the stages' params; the caller
// reduces and applies them.
//
// Stage behaviour follows Varuna's memory discipline: non-final stages
// stash only their micro-batch *input* and drop forward contexts
// (gradient checkpointing); before a backward they recompute the
// forward from the stash (§3.1). The final stage backwards each
// micro-batch straight after its forward, so it never recomputes
// (§3.2). Backwards are preferred over forwards whenever both are
// pending (rule 3), which also bounds the stash. StalePerMicro is the
// exception; see runMidStage.
func (e *Engine) runPipeline(stages []*stage, pp *pipe) float64 {
	p := len(stages)
	for k := range pp.targets {
		pp.fwd[0] <- k // feed the first stage
	}
	var loss float64
	var wg sync.WaitGroup
	wg.Add(p)
	for s, st := range stages {
		go func() {
			defer wg.Done()
			if s == p-1 {
				loss = e.runLastStage(st, pp)
			} else {
				e.runMidStage(st, pp)
			}
		}()
	}
	wg.Wait()
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
func (e *Engine) runMidStage(st *stage, pp *pipe) {
	s, nm := st.idx, len(pp.targets)
	fwdIn, bwdIn := pp.fwd[s], pp.bwd[s]
	forward := func(k int) {
		fill(pp.in[s+1][k], stageForward(st, pp.in[s][k]))
		pp.fwd[s+1] <- k
	}
	if e.cfg.Mode == StalePerMicro {
		for k := 0; k < nm; k++ {
			forward(<-fwdIn)
		}
		for k := 0; k < nm; k++ {
			e.stageBackward(st, pp, <-bwdIn)
		}
		return
	}
	fwdDone, bwdDone := 0, 0
	for bwdDone < nm {
		// Rule 3: drain ready backwards first.
		select {
		case k := <-bwdIn:
			e.stageBackward(st, pp, k)
			bwdDone++
			continue
		default:
		}
		if fwdDone < nm {
			select {
			case k := <-bwdIn:
				e.stageBackward(st, pp, k)
				bwdDone++
			case k := <-fwdIn:
				forward(k)
				fwdDone++
			}
		} else {
			e.stageBackward(st, pp, <-bwdIn)
			bwdDone++
		}
	}
}

// runLastStage executes the final stage: forward, loss, immediate
// backward (activations still hot — no recompute), returning the
// examples-weighted mean loss.
func (e *Engine) runLastStage(st *stage, pp *pipe) float64 {
	s, nm := st.idx, len(pp.targets)
	var lossSum float64
	for done := 0; done < nm; done++ {
		k := <-pp.fwd[s]
		h := pp.in[s][k]
		for i, l := range st.layers {
			h, st.ctxs[i] = l.Forward(h)
		}
		lossSum += nn.SoftmaxCrossEntropy(0, h, pp.targets[k], pp.dl, e.cfg.BatchSize) / float64(h.Rows)
		e.backward(st, pp, k, pp.dl)
	}
	return lossSum / float64(nm)
}

// stageBackward recomputes the stage's forward for micro-batch k from
// its stashed input (§3.1), then backpropagates.
func (e *Engine) stageBackward(st *stage, pp *pipe, k int) {
	h := pp.in[st.idx][k]
	for i, l := range st.layers {
		h, st.ctxs[i] = l.Forward(h)
	}
	e.backward(st, pp, k, pp.dy[st.idx][k])
}

// backward propagates micro-batch k's output gradient dy through the
// stage's contexts, hands the input gradient to the previous stage and,
// under StalePerMicro, applies the stage's update.
func (e *Engine) backward(st *stage, pp *pipe, k int, dy *nn.Matrix) {
	for i := len(st.layers) - 1; i >= 0; i-- {
		dy = st.layers[i].Backward(st.ctxs[i], dy)
	}
	if s := st.idx; s > 0 {
		fill(pp.dy[s-1][k], dy)
		pp.bwd[s-1] <- k
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
