// Package testbed is the ground-truth cluster: the stand-in for the
// paper's Azure spot fleet and DGX-2 hypercluster. It owns the true
// hardware cost models (compute kernels, network fabric) and executes
// pipeline configurations at task granularity with per-operation jitter,
// per-device speed heterogeneity and measurement noise.
//
// Two consumers sit on top. Varuna's profiler (internal/calibrate)
// treats the testbed as the machine being measured, via the
// calibrate.Bench interface. Experiments treat it as "reality": the
// Actual column of Table 7 and every measured throughput in §7 come
// from testbed runs, while the Estimated column comes from the
// parametric simulator fed with calibrated parameters.
package testbed

import (
	"fmt"
	"math"

	"repro/internal/compute"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Testbed is one cluster with its ground-truth cost models.
type Testbed struct {
	// Cluster is the hardware pool.
	Cluster hw.Cluster
	// Cost is the true GPU kernel model.
	Cost compute.CostModel
	// Fabric is the true network model.
	Fabric netsim.Fabric
	// NoiseCV is measurement noise applied to profiling probes.
	NoiseCV float64
	// HeteroCV is per-device speed spread across the fleet (§4.6
	// notes VMs can run "slower than the rest, often by as much 30%").
	HeteroCV float64

	rng *simtime.Rand
}

// New builds a testbed over cluster with deterministic randomness.
func New(cluster hw.Cluster, seed int64) *Testbed {
	contention := 1.0
	if cluster.LowPriority {
		// Spot VMs have no locality; flows cross oversubscribed
		// switch tiers.
		contention = 1.3
	}
	return &Testbed{
		Cluster:  cluster,
		Cost:     compute.Default(),
		Fabric:   netsim.New(contention),
		NoiseCV:  0.02,
		HeteroCV: 0.03,
		rng:      simtime.NewRand(seed),
	}
}

// jitterCV reports the run-time jitter level of the cluster's
// inter-node link.
func (tb *Testbed) jitterCV() float64 { return tb.Cluster.Inter.JitterCV }

// noisy perturbs a true value with measurement noise.
func (tb *Testbed) noisy(d simtime.Duration) simtime.Duration {
	return tb.rng.Jitter(d, tb.NoiseCV)
}

// --- calibrate.Bench implementation -------------------------------

// OpForward measures the raw forward kernel time of op — the F_i(m)
// primitive of Table 2.
func (tb *Testbed) OpForward(op model.Op, m int) simtime.Duration {
	return tb.noisy(tb.Cost.RawKernelTime(op.FwdFlops*float64(m), m))
}

// OpBackward measures the raw backward kernel time of op — the B_i(m)
// primitive of Table 2.
func (tb *Testbed) OpBackward(op model.Op, m int) simtime.Duration {
	return tb.noisy(tb.Cost.RawKernelTime(2*op.FwdFlops*float64(m), m))
}

// Overhead measures the fixed per-task launch overhead the §4.3
// profiler folds into every stage time.
func (tb *Testbed) Overhead() simtime.Duration {
	return tb.noisy(tb.Cost.LaunchOverhead)
}

// Transfer measures a point-to-point transfer of n bytes and the
// link's observed jitter — the activation/gradient latency primitives
// of Table 2 and the Observation-3 jitter the simulator replays.
func (tb *Testbed) Transfer(n int64, inter bool) (simtime.Duration, float64) {
	link := tb.Cluster.VM.Intra
	if inter {
		link = tb.Cluster.Inter
	}
	mean := tb.Fabric.PointToPoint(n, link)
	// A profiler averages a handful of jittered samples.
	const trials = 5
	var sum simtime.Duration
	for i := 0; i < trials; i++ {
		sum += tb.rng.Jitter(mean, link.JitterCV)
	}
	return sum / trials, link.JitterCV
}

// AllReduce measures a data-parallel gradient allreduce. The testbed
// places replicas of the same stage into the same VM first
// (replica-major), so the allreduce is hierarchical: an intra-VM phase
// over the local link, then one cross-node ring per VM — each NIC
// carries exactly one ring, making the k-in-flight contention the
// §4.3 probe asks about equal to inFlight=1 under this placement.
// On 1-GPU VMs the hierarchy degenerates to a flat ring.
func (tb *Testbed) AllReduce(n int64, d, inFlight int) simtime.Duration {
	t := tb.Fabric.HierarchicalAllReduce(n, d, tb.Cluster.VM.GPUs, tb.Cluster.VM.Intra, tb.Cluster.Inter)
	if inFlight > 1 {
		// Callers probing stage-major placement see the NIC shared
		// inFlight ways during the cross-node phase.
		t = simtime.Duration(float64(t) * float64(inFlight))
	}
	return tb.noisy(t)
}

// Optimizer measures the weight update for n parameters (the
// per-stage optimizer term of Table 2).
func (tb *Testbed) Optimizer(n int64) simtime.Duration {
	return tb.noisy(tb.Cost.OptimizerForParams(n, false))
}

// DeviceSpread measures the fleet's persistent per-device speed spread
// by timing the same kernel across VMs (§4.6 reports spot VMs running
// "slower than the rest, often by as much 30%").
func (tb *Testbed) DeviceSpread() float64 {
	return tb.HeteroCV * (1 + 0.1*tb.rng.NormFloat64())
}

// --- ground-truth execution ----------------------------------------

// JobConfig is a concrete parallel configuration to execute.
type JobConfig struct {
	Spec   *model.Spec
	Stages []model.Stage
	// M is the micro-batch size, Nm the micro-batches per mini-batch,
	// D the data-parallel width.
	M, Nm, D int
	// OffloadOptimizer keeps optimizer state in host memory (200B run).
	OffloadOptimizer bool
	// ExtraSlow optionally marks straggling replicas: replica index →
	// speed factor (1.3 = 30% slower), applied to every stage of that
	// replica's pipeline.
	ExtraSlow map[int]float64
	// NetSlow scales every network cost — activation/gradient sends
	// and allreduces — by the given factor: the testbed's
	// network-degradation injection (an oversubscribed or flapping
	// inter-node fabric). Zero or 1 means a healthy network.
	NetSlow float64
	// CollectTrace records replica 0's task trace in
	// Measurement.Trace, for Gantt rendering (Figure 7). The zero value
	// skips it, as sim.Config.CollectTrace does; summary metrics —
	// MiniBatchTime, Bubble, ExPerSec — are bit-identical either way.
	CollectTrace bool
}

// TrueStageCosts assembles stage costs from the ground-truth models —
// what the hardware "really" does, as opposed to what calibration
// estimated.
func (tb *Testbed) TrueStageCosts(cfg JobConfig) []sim.StageCosts {
	gpn := tb.Cluster.VM.GPUs
	netSlow := cfg.NetSlow
	if netSlow <= 0 {
		netSlow = 1
	}
	scaleNet := func(d simtime.Duration) simtime.Duration {
		if netSlow == 1 {
			return d
		}
		return simtime.Duration(float64(d)*netSlow + 0.5)
	}
	costs := make([]sim.StageCosts, len(cfg.Stages))
	for i, st := range cfg.Stages {
		c := sim.StageCosts{
			Fwd: tb.Cost.Forward(st, cfg.M),
			Bwd: tb.Cost.Backward(st, cfg.M),
			Rec: tb.Cost.Recompute(st, cfg.M),
		}
		if i < len(cfg.Stages)-1 {
			link := tb.Cluster.VM.Intra
			if (i+1)%gpn == 0 || gpn == 1 {
				link = tb.Cluster.Inter
			}
			c.ActSend = scaleNet(tb.Fabric.PointToPoint(st.SendBytes*int64(cfg.M), link))
			c.GradSend = c.ActSend
		}
		if cfg.D > 1 {
			c.AllReduce = scaleNet(tb.Fabric.HierarchicalAllReduce(st.Params*model.BytesPerParam, cfg.D, gpn, tb.Cluster.VM.Intra, tb.Cluster.Inter))
		}
		c.Optimizer = tb.Cost.OptimizerStep(st, cfg.OffloadOptimizer)
		costs[i] = c
	}
	return costs
}

// InterBoundaryFlags reports, for each stage, whether the activation
// hop to the next stage crosses nodes under the testbed's placement
// (pipeline stages packed into nodes first). The last entry is always
// false (no successor).
func (tb *Testbed) InterBoundaryFlags(p int) []bool {
	gpn := tb.Cluster.VM.GPUs
	flags := make([]bool, p)
	for i := 0; i < p-1; i++ {
		flags[i] = gpn == 1 || (i+1)%gpn == 0
	}
	return flags
}

// Measurement is one observed mini-batch execution (the "Actual"
// column of Table 7 and every measured throughput in §7).
type Measurement struct {
	// MiniBatchTime is the wall time of one mini-batch, allreduce and
	// optimizer step included.
	MiniBatchTime simtime.Duration
	// Examples is the number of training examples processed.
	Examples int
	// Trace is replica 0's task trace (for Gantt rendering, Figure 7).
	// Nil unless the measurement ran with JobConfig.CollectTrace; all
	// other fields are unaffected by the flag.
	Trace []sim.TaskSpan
	// Bubble is replica 0's pipeline bubble fraction.
	Bubble float64
}

// ExPerSec reports examples/second for the mini-batch.
func (ms Measurement) ExPerSec() float64 {
	if ms.MiniBatchTime <= 0 {
		return 0
	}
	return float64(ms.Examples) / ms.MiniBatchTime.Seconds()
}

// MeasureMiniBatch executes one mini-batch of cfg under Varuna's
// schedule and returns the observed timing. All D replica pipelines run
// with independent jitter and device-speed draws; each stage's
// allreduce starts when its slowest replica finishes, and the
// mini-batch completes when the slowest stage finishes its update.
func (tb *Testbed) MeasureMiniBatch(cfg JobConfig) (Measurement, error) {
	return tb.measure(cfg, nil)
}

// measure runs one mini-batch; runOne overrides single-replica
// execution when non-nil (used for non-Varuna policies).
func (tb *Testbed) measure(cfg JobConfig, runOne func(sim.Config) (sim.Result, error)) (Measurement, error) {
	if cfg.D < 1 || cfg.Nm < 1 || cfg.M < 1 {
		return Measurement{}, fmt.Errorf("testbed: bad config M=%d Nm=%d D=%d", cfg.M, cfg.Nm, cfg.D)
	}
	p := len(cfg.Stages)
	costs := tb.TrueStageCosts(cfg)
	// Strip the tail from per-replica runs; the cross-replica barrier
	// is applied below.
	pipeCosts := make([]sim.StageCosts, p)
	copy(pipeCosts, costs)
	for i := range pipeCosts {
		pipeCosts[i].AllReduce = 0
		pipeCosts[i].Optimizer = 0
	}

	// The mini-batch ends when the slowest replica of each stage joins
	// its allreduce ring. Rather than simulating all D pipelines
	// (identical work, independent noise), sample every replica's
	// per-stage device-speed factor and run ONE pipeline whose stage
	// speeds are the per-stage maxima — the effective pace the barrier
	// observes. Jitter on individual tasks averages out across a
	// mini-batch (the span's coefficient of variation shrinks with
	// 1/√tasks), so device heterogeneity dominates the cross-replica
	// spread.
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = 1
	}
	for r := 0; r < cfg.D; r++ {
		extra := 1.0
		if f, ok := cfg.ExtraSlow[r]; ok {
			extra = f
		}
		for i := range speeds {
			s := (1 + math.Abs(tb.rng.NormFloat64())*tb.HeteroCV) * extra
			if s > speeds[i] {
				speeds[i] = s
			}
		}
	}
	rcfg := sim.Config{
		Depth:           p,
		Micros:          cfg.Nm,
		Policy:          varunaPolicy,
		Costs:           pipeCosts,
		JitterCV:        tb.jitterCV(),
		ComputeJitterCV: 0.02, // GPU kernels are far steadier than the network
		Rand:            tb.rng,
		SpeedFactor:     speeds,
		CollectTrace:    cfg.CollectTrace,
	}
	var res sim.Result
	var err error
	if runOne != nil {
		res, err = runOne(rcfg)
	} else {
		res, err = sim.Run(rcfg)
	}
	if err != nil {
		return Measurement{}, err
	}
	var meas Measurement
	meas.Trace = res.Trace
	meas.Bubble = res.BubbleFrac
	var total simtime.Time
	for i, end := range res.StageEnds {
		e := end.
			Add(tb.rng.Jitter(costs[i].AllReduce, tb.jitterCV())).
			Add(costs[i].Optimizer)
		total = simtime.Max(total, e)
	}
	meas.MiniBatchTime = simtime.Duration(total)
	meas.Examples = cfg.M * cfg.Nm * cfg.D
	return meas, nil
}
