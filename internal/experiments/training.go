package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/nn"
)

// charGPT is the Figure 9/10 substitution model: a character-level
// transformer trained for real on a synthetic corpus. The paper trains
// a 2.5B GPT-2; the claims under test (large-batch equivalence,
// morphing-invariant trajectories, stale-update divergence) are
// properties of the training semantics, not the parameter count.
func charGPT() nn.GPTConfig {
	return nn.GPTConfig{Vocab: 24, Dim: 24, SeqLen: 12, Layers: 4, MLPMult: 2, Seed: 99}
}

// lossCurve renders losses as a coarse text chart.
func lossCurve(label string, losses []float64, lo, hi float64) string {
	const cols = 80
	glyphs := []rune("█▇▆▅▄▃▂▁ ")
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s ", label)
	for c := 0; c < cols; c++ {
		idx := c * len(losses) / cols
		v := losses[idx]
		if math.IsNaN(v) || v > hi {
			v = hi
		}
		if v < lo {
			v = lo
		}
		frac := (v - lo) / (hi - lo)
		g := int(frac * float64(len(glyphs)-1))
		b.WriteRune(glyphs[len(glyphs)-1-g])
	}
	fmt.Fprintf(&b, "  final %.3f\n", losses[len(losses)-1])
	return b.String()
}

// Fig9Convergence reproduces Figure 9's claim at engine scale: training
// with a 16x larger mini-batch for 16x fewer iterations reaches the
// same held-out loss, and a mid-run morph (new P×D from a checkpoint)
// leaves the trajectory unchanged.
func Fig9Convergence(x *Ctx) (*Table, error) {
	const (
		smallBatch = 16
		bigBatch   = 256 // 16x
		smallSteps = 640
		bigSteps   = 40 // 16x fewer
	)
	small, err := engine.New(engine.Config{GPT: charGPT(), P: 2, D: 1, MicroBatch: 8,
		BatchSize: smallBatch, LR: 2e-3, DataSeed: 31})
	if err != nil {
		return nil, err
	}
	smallLoss := small.Losses(smallSteps)
	smallEval := small.Eval(4)

	big, err := engine.New(engine.Config{GPT: charGPT(), P: 2, D: 2, MicroBatch: 8,
		BatchSize: bigBatch, LR: 8e-3, DataSeed: 31})
	if err != nil {
		return nil, err
	}
	bigLoss := big.Losses(bigSteps)
	bigEval := big.Eval(4)

	// Morphing mid-run: train the big-batch job 10 steps at 2x2,
	// checkpoint, resume at 3x1, finish — compare to the straight run.
	store := checkpoint.NewMemStore()
	m1, err := engine.New(engine.Config{GPT: charGPT(), P: 2, D: 2, MicroBatch: 8,
		BatchSize: bigBatch, LR: 8e-3, DataSeed: 31})
	if err != nil {
		return nil, err
	}
	morphLoss := m1.Losses(bigSteps / 2)
	if err := m1.Save(store); err != nil {
		return nil, err
	}
	m2, err := engine.Resume(engine.Config{GPT: charGPT(), P: 3, D: 1, MicroBatch: 8,
		BatchSize: bigBatch, LR: 8e-3, DataSeed: 31}, store)
	if err != nil {
		return nil, err
	}
	morphLoss = append(morphLoss, m2.Losses(bigSteps-bigSteps/2)...)
	var worst float64
	for i := range bigLoss {
		d := math.Abs(bigLoss[i] - morphLoss[i])
		if d > worst {
			worst = d
		}
	}

	t := &Table{
		Title:  "Figure 9: convergence with 16x larger mini-batch (char-GPT substitution)",
		Header: []string{"Run", "Batch", "Iterations", "Held-out loss"},
	}
	t.Add("baseline", fmt.Sprint(smallBatch), fmt.Sprint(smallSteps), f3(smallEval))
	t.Add("16x batch, 16x fewer iters", fmt.Sprint(bigBatch), fmt.Sprint(bigSteps), f3(bigEval))
	t.Add("same + mid-run morph 2x2→3x1", fmt.Sprint(bigBatch), fmt.Sprint(bigSteps), f3(m2.Eval(4)))
	lo, hi := 0.0, smallLoss[0]
	t.Figure = lossCurve("baseline", smallLoss, lo, hi) +
		lossCurve("16x batch", bigLoss, lo, hi) +
		lossCurve("16x batch+morph", morphLoss, lo, hi)
	t.Notes = append(t.Notes,
		fmt.Sprintf("morphed vs straight trajectory: max |Δloss| = %.2e (sync-SGD preserved)", worst),
		"paper: 2.5B GPT-2 at batch 8192 matches Megatron's batch-512 validation perplexity (10.81) on 16x fewer iterations")
	return t, nil
}

// Fig10TwoBW reproduces the appendix finding: stale-update pipelines
// (PipeDream/2BW-style) destabilize training that sync-SGD handles.
func Fig10TwoBW(x *Ctx) (*Table, error) {
	const steps = 40
	sync, err := engine.New(engine.Config{GPT: charGPT(), P: 4, D: 1, MicroBatch: 4,
		BatchSize: 64, LR: 3e-2, DataSeed: 33})
	if err != nil {
		return nil, err
	}
	syncLoss := sync.Losses(steps)

	stale, err := engine.New(engine.Config{GPT: charGPT(), P: 4, D: 1, MicroBatch: 4,
		BatchSize: 64, LR: 3e-2, DataSeed: 33, Mode: engine.StalePerMicro})
	if err != nil {
		return nil, err
	}
	staleLoss := stale.Losses(steps)

	twoBW, err := engine.New(engine.Config{GPT: charGPT(), P: 4, D: 1, MicroBatch: 4,
		BatchSize: 64, LR: 3e-2, DataSeed: 33, Mode: engine.TwoBW})
	if err != nil {
		return nil, err
	}
	twoBWLoss := twoBW.Losses(steps)

	t := &Table{
		Title:  "Figure 10: sync-SGD vs stale-update pipelines (char-GPT substitution)",
		Header: []string{"Discipline", "Final loss", "Max loss seen"},
	}
	t.Add("synchronous (Varuna)", f3(syncLoss[steps-1]), f3(maxOf(syncLoss)))
	t.Add("2BW delayed updates (PipeDream-2BW)", f3(twoBWLoss[steps-1]), f3(maxOf(twoBWLoss)))
	t.Add("stale per-micro updates (PipeDream-style)", f3(staleLoss[steps-1]), f3(maxOf(staleLoss)))
	hi := syncLoss[0] * 2
	t.Figure = lossCurve("sync", syncLoss, 0, hi) + lossCurve("2BW", twoBWLoss, 0, hi) + lossCurve("stale", staleLoss, 0, hi)
	t.Notes = append(t.Notes,
		"stale schedule: each non-final stage runs a mini-batch's forwards before its backwards, the most staleness a backward-first pipeline reaches, so the run is deterministic",
		"a 1F1B stale schedule (P-s micro-batches in flight at stage s) trained better than sync instead: mean loss over steps 26-30 of 0.74 vs 1.27 in the engine's stale-updates test",
		"paper: PipeDream-2BW's 355M GPT-2 diverged after 16k iterations; sync training did not")
	return t, nil
}

func maxOf(xs []float64) float64 {
	worst := xs[0]
	for _, x := range xs {
		if math.IsNaN(x) {
			return math.NaN()
		}
		if x > worst {
			worst = x
		}
	}
	return worst
}

// SharedStateTracer demonstrates §5.2 end-to-end: the tracer flags the
// tied embedding when a partition boundary separates it, and training
// without the mandated synchronization drifts from the reference.
func SharedStateTracer(x *Ctx) (*Table, error) {
	ref, err := engine.New(engine.Config{GPT: charGPT(), P: 1, D: 1, MicroBatch: 8,
		BatchSize: 32, LR: 3e-3, DataSeed: 35})
	if err != nil {
		return nil, err
	}
	ref.Losses(12)

	mk := func(disable bool) (*engine.Engine, error) {
		return engine.New(engine.Config{GPT: charGPT(), P: 3, D: 1, MicroBatch: 8,
			BatchSize: 32, LR: 3e-3, DataSeed: 35, DisableSharedSync: disable})
	}
	good, err := mk(false)
	if err != nil {
		return nil, err
	}
	good.Losses(12)
	bad, err := mk(true)
	if err != nil {
		return nil, err
	}
	bad.Losses(12)

	drift := func(e *engine.Engine) float64 {
		a, b := ref.Fingerprint(), e.Fingerprint()
		var worst float64
		for k, av := range a {
			bv := b[k]
			for i := range av {
				d := math.Abs(av[i] - bv[i])
				if d > worst {
					worst = d
				}
			}
		}
		return worst
	}
	t := &Table{
		Title:  "§5.2: tracer-mandated shared-state synchronization",
		Header: []string{"Run", "Tracer findings", "Max |Δparam| vs single-GPU reference"},
	}
	t.Add("3-stage pipeline, sync ON", fmt.Sprint(good.SharedParamNames()), fmt.Sprintf("%.2e", drift(good)))
	t.Add("3-stage pipeline, sync OFF", fmt.Sprint(bad.SharedParamNames()), fmt.Sprintf("%.2e", drift(bad)))
	t.Notes = append(t.Notes, "the tied embedding drifts without cross-partition allreduce — the bug class the tracer catches")
	return t, nil
}
