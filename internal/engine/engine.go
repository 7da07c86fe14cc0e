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

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Sync:
		return "Sync"
	case StalePerMicro:
		return "StalePerMicro"
	case TwoBW:
		return "TwoBW"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

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
	ctxs   []nn.Ctx // the layers' contexts (plain values) of the micro-batch in hand
}

// Engine is a live training job.
type Engine struct {
	cfg      Config
	replicas [][]*stage // [D][P]
	// layerStages[l] is the stage index owning global layer l.
	layerStages []int
	step        int
	// rng draws each mini-batch into inputs and targets, reseeded per
	// batch; batch allocates the two matrices at its first call.
	rng             *rand.Rand
	inputs, targets *nn.Matrix

	// The rest is allocated at the first Step and reused by every one:
	// pipes[r] holds replica r's stage hand-offs, groups the
	// allreduce's parameter groups, and parked, under TwoBW, the
	// previous mini-batch's gradients, one buffer per parameter in
	// replica, stage and layer order.
	pipes  []*pipe
	groups []paramGroup
	parked [][]float64
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
	e.batch()
	if e.pipes == nil {
		e.allocateSteps()
	}
	losses := make([]float64, e.cfg.D)
	var wg sync.WaitGroup
	wg.Add(e.cfg.D)
	for r, stages := range e.replicas {
		go func() {
			defer wg.Done()
			losses[r] = e.runPipeline(stages, e.pipes[r])
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

// allocateSteps allocates what every Step reuses: each replica's pipe
// and each stage's context list, the allreduce groups unless updates
// are per micro-batch, and TwoBW's parked gradients.
func (e *Engine) allocateSteps() {
	for r, stages := range e.replicas {
		e.pipes = append(e.pipes, e.newPipe(r, len(stages)))
		for _, st := range stages {
			st.ctxs = make([]nn.Ctx, len(st.layers))
			if e.cfg.Mode == TwoBW {
				for _, p := range st.params {
					e.parked = append(e.parked, make([]float64, len(p.Grad)))
				}
			}
		}
	}
	if e.cfg.Mode != StalePerMicro {
		e.groups = e.paramGroups()
	}
}

// reduceDelayed implements 2BW's double-buffered updates: this
// mini-batch's reduced gradients are parked, and the previous
// mini-batch's parked gradients are applied instead — every update
// lands one step stale. Each parameter's accumulator and its parked
// buffer swap: the optimizer reads the previous gradients from the
// accumulator and zeroes it for the next mini-batch. The first
// mini-batch has nothing parked and applies no update.
func (e *Engine) reduceDelayed() {
	// Reduce exactly as sync would, but park instead of applying.
	e.reduceGradients()
	i := 0
	for _, stages := range e.replicas {
		for _, st := range stages {
			for _, p := range st.params {
				p.Grad, e.parked[i] = e.parked[i], p.Grad
				i++
			}
			if e.step > 0 {
				st.opt.Step(st.params)
			}
		}
	}
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

// paramGroup is one allreduce: the parameter instances whose
// gradients it sums, and the kept buffer it sums them in.
type paramGroup struct {
	instances []*nn.Param
	sum       []float64
}

// paramGroups builds the replica and shared-state allreduces of §6.
// Parameter instances are grouped by name across replicas and stages:
// ordinary params appear once per replica, shared params once per
// holding stage per replica. Shared params sync across all holders,
// ordinary params across replicas; a group of one needs no allreduce.
func (e *Engine) paramGroups() []paramGroup {
	byName := make(map[string][]*nn.Param)
	var order []string
	for _, stages := range e.replicas {
		for _, st := range stages {
			for _, p := range st.params {
				if _, ok := byName[p.Name]; !ok {
					order = append(order, p.Name)
				}
				byName[p.Name] = append(byName[p.Name], p)
			}
		}
	}
	var groups []paramGroup
	add := func(instances []*nn.Param) {
		groups = append(groups, paramGroup{instances: instances, sum: make([]float64, len(instances[0].Grad))})
	}
	for _, name := range order {
		instances := byName[name]
		first := instances[0]
		crossStage := first.Shared && !e.cfg.DisableSharedSync
		switch {
		case len(instances) == 1, !crossStage && e.cfg.D == 1:
			// Nothing to sum across.
		case !crossStage && first.Shared:
			// Tracer sync disabled, the bug the tracer prevents: each
			// stage's copy syncs only with its own data-parallel ring,
			// so the embedding and lm_head copies drift apart.
			// Instances are replica-major in a fixed stage order, so
			// a ring is one position within each replica.
			perReplica := len(instances) / e.cfg.D
			for pos := 0; pos < perReplica; pos++ {
				ring := make([]*nn.Param, e.cfg.D)
				for r := range ring {
					ring[r] = instances[r*perReplica+pos]
				}
				add(ring)
			}
		default:
			add(instances)
		}
	}
	return groups
}

// reduceGradients performs the replica and shared-state allreduces,
// leaving summed gradients in place.
func (e *Engine) reduceGradients() {
	for _, g := range e.groups {
		clear(g.sum)
		for _, p := range g.instances {
			for i, v := range p.Grad {
				g.sum[i] += v
			}
		}
		for _, p := range g.instances {
			copy(p.Grad, g.sum)
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

// sliceRows views rows [lo, lo+n) of m.
func sliceRows(m *nn.Matrix, lo, n int) *nn.Matrix {
	return &nn.Matrix{Rows: n, Cols: m.Cols, Data: m.Data[lo*m.Cols : (lo+n)*m.Cols]}
}
