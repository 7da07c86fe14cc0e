// Package core is Varuna's top-level API: it ties together cut-point
// identification (§5.1), scale-invariant calibration (§4.3), the
// parametrized simulator (§4.4) and job morphing (§4.2) behind a
// single Job type. A user describes a model and a resource pool;
// Varuna works out how to run it. The §4.6 manager keeps it running
// as spot capacity comes and goes, planning with the Job's inputs,
// testbed and lifetime planner; a scenario file (internal/scenario)
// describes such a run.
//
//	job, _ := core.NewJob(model.GPT2Megatron8B(), hw.SpotCluster(hw.NC6v3, 300), 8192, 1)
//	cfg, _ := job.BestConfig(300)       // e.g. 18x16
//	ms, _ := job.Measure(cfg)           // execute one mini-batch on the testbed
//	est, _ := job.Estimate(cfg)         // the simulator's prediction
package core

import (
	"fmt"

	"repro/internal/autoconfig"
	"repro/internal/calibrate"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/testbed"
)

// Job is one training job managed by Varuna.
type Job struct {
	// Spec is the model under training.
	Spec *model.Spec
	// Cluster is the resource pool (spot VMs or hypercluster).
	Cluster hw.Cluster
	// MTotal is the global mini-batch size, fixed for the job's life.
	MTotal int

	tb      *testbed.Testbed
	cuts    []model.CutPoint
	params  *calibrate.Params
	in      autoconfig.Inputs
	planner *autoconfig.Planner
}

// NewJob profiles the model on the cluster and prepares it for
// configuration: cut-points are identified once, and the one-time
// calibration measures the Table 2 parameters. Neither depends on how
// many GPUs the job later runs on.
func NewJob(spec *model.Spec, cluster hw.Cluster, mTotal int, seed int64) (*Job, error) {
	if spec == nil {
		return nil, fmt.Errorf("core: nil model spec")
	}
	if mTotal < 1 {
		return nil, fmt.Errorf("core: mini-batch size %d < 1", mTotal)
	}
	tb := testbed.New(cluster, seed)
	// One cut-point per candidate boundary: enough for pipelines as
	// deep as the layer structure allows.
	k := 2*spec.NumLayers - 1
	if k < 1 {
		k = 1
	}
	cuts, err := model.FindCutPoints(spec, k)
	if err != nil {
		return nil, err
	}
	params, err := calibrate.Run(spec, tb, calibrate.Options{GPUsPerNode: cluster.VM.GPUs})
	if err != nil {
		return nil, err
	}
	j := &Job{Spec: spec, Cluster: cluster, MTotal: mTotal, tb: tb, cuts: cuts, params: params}
	j.in = autoconfig.Inputs{
		Spec:        spec,
		Cuts:        cuts,
		Params:      params,
		GPUMem:      cluster.VM.GPU.MemoryBytes,
		MTotal:      mTotal,
		GPUsPerNode: cluster.VM.GPUs,
	}
	j.planner = autoconfig.NewPlanner(j.in)
	return j, nil
}

// Testbed exposes the underlying ground-truth cluster (for
// experiments and baselines).
func (j *Job) Testbed() *testbed.Testbed { return j.tb }

// Calibration exposes the measured Table 2 parameters.
func (j *Job) Calibration() *calibrate.Params { return j.params }

// CutPoints exposes the identified partition boundaries.
func (j *Job) CutPoints() []model.CutPoint { return j.cuts }

// Inputs exposes the morphing inputs (for the manager).
func (j *Job) Inputs() autoconfig.Inputs { return j.in }

// Planner exposes the job-lifetime morph planner: every configuration
// decision made through this Job shares its caches, so repeated
// sweeps across a morphing timeline only pay partition costs once per
// unique (P, m, D) candidate.
func (j *Job) Planner() *autoconfig.Planner { return j.planner }

// BestConfig picks the fastest (P, D, m, Nm) for g GPUs via the
// simulator sweep (§4.4), memoized per fleet size by the planner.
func (j *Job) BestConfig(g int) (autoconfig.Choice, error) {
	return j.planner.Best(g)
}

// Sweep evaluates every feasible pipeline depth for g GPUs through the
// planner's lifetime cache.
func (j *Job) Sweep(g int) ([]autoconfig.Choice, error) {
	return j.planner.Sweep(g)
}

// Configure evaluates one explicit P×D shape through the planner's
// lifetime cache.
func (j *Job) Configure(p, d int) (autoconfig.Choice, error) {
	return j.planner.Evaluate(p, d)
}

// Estimate predicts the mini-batch time of a configuration with the
// calibrated parametric simulator.
func (j *Job) Estimate(c autoconfig.Choice) (simtime.Duration, error) {
	costs, err := j.params.StageCosts(j.Spec, c.Stages, c.M, c.D, j.tb.InterBoundaryFlags(c.P))
	if err != nil {
		return 0, err
	}
	return sim.EstimateMakespan(sim.Config{Depth: c.P, Micros: c.Nm, Policy: schedule.Varuna, Costs: costs})
}

// Measure executes one mini-batch of the configuration on the
// ground-truth testbed under Varuna's schedule.
func (j *Job) Measure(c autoconfig.Choice) (testbed.Measurement, error) {
	return j.tb.MeasureMiniBatch(j.jobConfig(c))
}

// MeasureWithPolicy executes one mini-batch under a comparison
// system's schedule.
func (j *Job) MeasureWithPolicy(c autoconfig.Choice, policy schedule.Policy) (testbed.Measurement, error) {
	return j.tb.MeasureWithPolicy(j.jobConfig(c), policy)
}

func (j *Job) jobConfig(c autoconfig.Choice) testbed.JobConfig {
	return testbed.JobConfig{
		Spec:   j.Spec,
		Stages: c.Stages,
		M:      c.M,
		Nm:     c.Nm,
		D:      c.D,
	}
}
