// Package engine is a real pipeline + data-parallel training executor:
// it partitions an nn model at cut-points into P stages, replicates the
// pipeline D ways, streams micro-batches through goroutine stages
// connected by channels (backward preferred, activations recomputed
// from stashed stage inputs exactly as §3.1 prescribes), accumulates
// gradients across Nm micro-batches, allreduces across replicas, and
// synchronizes tracer-flagged shared parameters across stages (§5.2).
//
// Unlike the analytical testbed, everything here is genuine float64
// arithmetic. The engine exists to validate Varuna's semantic claims:
//
//   - Correctness-preserving morphing (§4.2): for a fixed global batch
//     size, any (P, D, m) configuration computes the same gradients, so
//     the loss trajectory is invariant under reconfiguration.
//   - Tied weights across partitions stay consistent only when the
//     tracer-mandated synchronization runs.
//   - Per-layer checkpoints restore exactly, under a different P×D.
//   - Stale-update pipelines (PipeDream-style) damage convergence
//     (Figure 10), while sync-SGD does not.
package engine

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/nn"
	"repro/internal/trace"
)

// Mode selects the update discipline.
type Mode int

const (
	// Sync is synchronous SGD: gradients apply at mini-batch
	// boundaries (Varuna, GPipe).
	Sync Mode = iota
	// StalePerMicro applies each stage's update immediately after
	// every micro-batch backward, giving PipeDream-style weight
	// staleness and forward/backward version mismatch. Every
	// non-final stage runs all of a mini-batch's forwards before its
	// backwards, so the staleness, and the run, is deterministic.
	StalePerMicro
	// TwoBW models PipeDream-2BW: gradients accumulate over the
	// mini-batch as in sync-SGD, but each update applies one
	// mini-batch late (the second buffered weight version), so every
	// gradient is computed against weights one update stale.
	TwoBW
)

// Config describes one training setup.
type Config struct {
	// GPT is the model architecture.
	GPT nn.GPTConfig
	// P is pipeline depth (≤ number of layers), D data-parallel width.
	P, D int
	// MicroBatch is m; BatchSize is the global M_total. BatchSize must
	// be divisible by MicroBatch·D.
	MicroBatch, BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// Mode selects sync or stale updates.
	Mode Mode
	// DisableSharedSync skips the tracer-mandated cross-stage
	// synchronization of tied weights — the bug Varuna's tracer
	// prevents. For ablation only.
	DisableSharedSync bool
	// DataSeed drives the synthetic corpus; independent of topology.
	DataSeed int64
}

func (c Config) validate() error {
	if c.P < 1 || c.D < 1 || c.MicroBatch < 1 || c.BatchSize < 1 {
		return fmt.Errorf("engine: bad shape P=%d D=%d m=%d B=%d", c.P, c.D, c.MicroBatch, c.BatchSize)
	}
	if c.BatchSize%(c.MicroBatch*c.D) != 0 {
		return fmt.Errorf("engine: batch %d not divisible by m·D = %d", c.BatchSize, c.MicroBatch*c.D)
	}
	if c.P > c.GPT.Layers+2 {
		return fmt.Errorf("engine: P=%d exceeds %d layers", c.P, c.GPT.Layers+2)
	}
	return nil
}

// stage owns a contiguous slice of layers on one "device".
type stage struct {
	idx    int
	layers []nn.Layer
	opt    *nn.Adam
	params []*nn.Param
}

// Engine is a live training job.
type Engine struct {
	cfg      Config
	replicas [][]*stage // [D][P]
	// layerStages[l] is the stage index owning global layer l.
	layerStages []int
	step        int
	rng         *rand.Rand
	// pending holds 2BW's parked gradients awaiting delayed application.
	pending map[*nn.Param][]float64
}

// New builds the engine: every replica constructs the model from the
// same seed (identical initial weights, as a broadcast would ensure)
// and slices it into P stages.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, rng: rand.New(rand.NewSource(cfg.DataSeed))}
	numLayers := cfg.GPT.Layers + 2
	e.layerStages = splitLayers(numLayers, cfg.P)
	for r := 0; r < cfg.D; r++ {
		layers := nn.BuildGPT(cfg.GPT)
		stages := make([]*stage, cfg.P)
		for s := 0; s < cfg.P; s++ {
			stages[s] = &stage{idx: s, opt: nn.NewAdam(cfg.LR)}
		}
		for l, li := range layers {
			s := e.layerStages[l]
			stages[s].layers = append(stages[s].layers, li)
			stages[s].params = append(stages[s].params, li.Params()...)
		}
		e.replicas = append(e.replicas, stages)
	}
	return e, nil
}

// splitLayers assigns numLayers contiguous layers to p stages as evenly
// as possible, biasing the remainder toward early stages so the final
// stage (which skips recompute) stays light.
func splitLayers(numLayers, p int) []int {
	out := make([]int, numLayers)
	base := numLayers / p
	rem := numLayers % p
	l := 0
	for s := 0; s < p; s++ {
		n := base
		if s < rem {
			n++
		}
		for i := 0; i < n && l < numLayers; i++ {
			out[l] = s
			l++
		}
	}
	return out
}

// SharedParamNames reports the tracer's findings for this partition:
// parameters touched from more than one stage, which must be
// allreduced across the pipeline group every mini-batch (§5.2). The
// detection is a trace.DryRun over replica 0's partitioned layers.
func (e *Engine) SharedParamNames() []string {
	var layers []nn.Layer
	var stageOf []int
	for l := range e.layerStages {
		layer, _ := e.layerAt(0, l)
		layers = append(layers, layer)
		stageOf = append(stageOf, e.layerStages[l])
	}
	report, err := trace.DryRun(layers, stageOf)
	if err != nil {
		return nil
	}
	return report.SharedParamNames()
}

// Step runs one mini-batch and returns the global mean loss.
func (e *Engine) Step() float64 {
	inputs, targets := e.batch()
	perReplica := e.cfg.BatchSize / e.cfg.D
	nm := perReplica / e.cfg.MicroBatch

	losses := make([]float64, e.cfg.D)
	var wg sync.WaitGroup
	for r := 0; r < e.cfg.D; r++ {
		r := r
		lo := r * perReplica
		wg.Add(1)
		go func() {
			defer wg.Done()
			losses[r] = e.runPipeline(e.replicas[r],
				sliceRows(inputs, lo, perReplica),
				sliceRows(targets, lo, perReplica),
				nm)
		}()
	}
	wg.Wait()
	// Sum in replica order, not finishing order, so the reported loss
	// does not depend on goroutine timing.
	var lossSum float64
	for _, l := range losses {
		lossSum += l
	}

	switch e.cfg.Mode {
	case Sync:
		e.reduceAndStep()
	case TwoBW:
		e.reduceDelayed()
	}
	e.step++
	return lossSum / float64(e.cfg.D)
}

// reduceDelayed implements 2BW's double-buffered updates: this
// mini-batch's reduced gradients are parked, and the previous
// mini-batch's parked gradients are applied instead — every update
// lands one step stale.
func (e *Engine) reduceDelayed() {
	// Reduce exactly as sync would, but capture instead of applying.
	e.reduceGradients()
	current := make(map[*nn.Param][]float64)
	for _, stages := range e.replicas {
		for _, st := range stages {
			for _, p := range st.params {
				current[p] = append([]float64(nil), p.Grad...)
				p.ZeroGrad()
			}
		}
	}
	if e.pending != nil {
		for _, stages := range e.replicas {
			for _, st := range stages {
				for _, p := range st.params {
					copy(p.Grad, e.pending[p])
				}
				st.opt.Step(st.params)
			}
		}
	}
	e.pending = current
}

// reduceAndStep implements the two process groups of §6: gradients of
// every parameter are summed across data-parallel replicas, and
// tracer-flagged shared parameters are additionally summed across the
// stages of each pipeline; then every stage applies its optimizer.
func (e *Engine) reduceAndStep() {
	e.reduceGradients()
	for _, stages := range e.replicas {
		for _, st := range stages {
			st.opt.Step(st.params)
		}
	}
}

// reduceGradients performs the replica and shared-state allreduces,
// leaving summed gradients in place.
func (e *Engine) reduceGradients() {
	// Group parameter instances by name across replicas and stages.
	// Ordinary params appear once per replica; shared params once per
	// holding stage per replica.
	type group struct{ instances []*nn.Param }
	groups := make(map[string]*group)
	var order []string
	for _, stages := range e.replicas {
		for _, st := range stages {
			for _, p := range st.params {
				g, ok := groups[p.Name]
				if !ok {
					g = &group{}
					groups[p.Name] = g
					order = append(order, p.Name)
				}
				g.instances = append(g.instances, p)
			}
		}
	}
	for _, name := range order {
		g := groups[name]
		first := g.instances[0]
		crossStage := first.Shared && !e.cfg.DisableSharedSync
		if len(g.instances) == 1 {
			continue
		}
		if !crossStage && e.cfg.D == 1 {
			continue
		}
		// Which instances participate: shared params sync across all
		// holders; ordinary params only across replicas (they appear
		// once per replica anyway).
		parts := g.instances
		if !crossStage && first.Shared {
			// Tracer sync disabled: reduce within replicas only, i.e.
			// each stage's copy sees only its replica-ring sum. Group
			// instances by stage position.
			e.reduceSharedPerStage(g.instances)
			continue
		}
		sum := make([]float64, len(first.Grad))
		for _, p := range parts {
			for i, v := range p.Grad {
				sum[i] += v
			}
		}
		for _, p := range parts {
			copy(p.Grad, sum)
		}
	}
}

// reduceSharedPerStage models the buggy behaviour the tracer prevents:
// each stage's copy of a shared parameter only syncs with its own
// data-parallel ring, so the embedding and lm_head copies drift apart.
func (e *Engine) reduceSharedPerStage(instances []*nn.Param) {
	// Instances are ordered replica-major, stage order consistent:
	// group by position within replica.
	perReplica := len(instances) / e.cfg.D
	for pos := 0; pos < perReplica; pos++ {
		sum := make([]float64, len(instances[0].Grad))
		for r := 0; r < e.cfg.D; r++ {
			p := instances[r*perReplica+pos]
			for i, v := range p.Grad {
				sum[i] += v
			}
		}
		for r := 0; r < e.cfg.D; r++ {
			copy(instances[r*perReplica+pos].Grad, sum)
		}
	}
}

// Losses runs n mini-batches and returns the loss sequence.
func (e *Engine) Losses(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = e.Step()
	}
	return out
}

// StepCount reports completed mini-batches.
func (e *Engine) StepCount() int { return e.step }

// sliceRows views rows [lo, lo+n) of m.
func sliceRows(m *nn.Matrix, lo, n int) *nn.Matrix {
	return &nn.Matrix{Rows: n, Cols: m.Cols, Data: m.Data[lo*m.Cols : (lo+n)*m.Cols]}
}
