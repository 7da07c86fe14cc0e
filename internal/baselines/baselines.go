// Package baselines implements the comparison systems of the paper's
// evaluation: Megatron-style intra-layer (tensor) model parallelism
// combined with data parallelism, and plain data-parallel training.
// The cost model encodes the paper's own arithmetic from Observation 1:
// intra-layer partitioning performs two synchronous allreduces per
// layer in each of the forward, backward and recompute passes, moving
// 2·hiddenSize·sequenceLength 16-bit floats per allreduce per example —
// ≈2.4 GB per example per GPU for the 2.5B model, ~300× the pipeline-
// parallel boundary traffic.
package baselines

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

// MegatronConfig is one intra-layer + data-parallel configuration.
type MegatronConfig struct {
	// Spec is the model.
	Spec *model.Spec
	// MP is the tensor-parallel width (GPUs per model instance).
	MP int
	// D is the data-parallel width (model replicas).
	D int
	// M is the per-instance micro-batch size.
	M int
	// MTotal is the global mini-batch size.
	MTotal int
}

// GPUs reports the configuration's GPU count.
func (c MegatronConfig) GPUs() int { return c.MP * c.D }

// MegatronMemoryFeasible reports whether a model fits at tensor-
// parallel width mp on a gpuMem-byte device. Megatron shards parameters,
// gradients and optimizer state mp ways and checkpoints activations;
// the effective footprint is ≈12 bytes per on-device parameter plus a
// working reserve. This reproduces Table 4's boundary: 19.2B fits
// 16-way on 16 GB, 20B does not.
func MegatronMemoryFeasible(params int64, mp int, gpuMem int64) bool {
	perGPU := params / int64(mp)
	need := perGPU*12 + 2_500_000_000 // ~2.3 GiB working reserve
	return need <= gpuMem
}

// MegatronTime estimates one mini-batch (iteration) time of Megatron
// on the given cluster. The intra-layer allreduces ride the link
// joining the mp GPUs of one instance (NVLink inside a DGX-2, PCIe
// inside a 4-GPU VM, ethernet when an instance spans VMs); the
// data-parallel gradient allreduce crosses nodes.
func MegatronTime(c MegatronConfig, cluster hw.Cluster, fabric netsim.Fabric, cost compute.CostModel) (simtime.Duration, error) {
	if c.MP < 1 || c.D < 1 || c.M < 1 {
		return 0, fmt.Errorf("baselines: bad megatron config %+v", c)
	}
	if !MegatronMemoryFeasible(c.Spec.Params(), c.MP, cluster.VM.GPU.MemoryBytes) {
		return 0, fmt.Errorf("baselines: %s OOM at %d-way model parallelism", c.Spec.Name, c.MP)
	}
	exPerInstance := (c.MTotal + c.D - 1) / c.D

	// Compute: forward + backward + recompute = 4× forward, split mp
	// ways at reduced kernel efficiency (the per-GPU GEMMs shrink as
	// the split widens).
	split := cost
	split.IntraLayerPenalty = intraPenalty(c.MP)
	flops := 4 * c.Spec.FwdFlopsPerExample() * float64(exPerInstance) / float64(c.MP)
	computeT := split.RawKernelTime(flops, c.M) +
		simtime.Duration(int64(cost.LaunchOverhead)*int64(exPerInstance/maxInt(c.M, 1)+1))

	// Intra-layer allreduces: 2 per layer per pass × 3 passes over an
	// S×H fp16 activation tensor per example. Each ring member then
	// moves ≈2·(S·H) halves on the wire — the paper's "2 × hiddenSize
	// × sequenceLength 16-bit floats" per allreduce. Synchronous.
	link := instanceLink(cluster, c.MP)
	perAR := int64(2) * int64(c.Spec.SeqLen) * int64(c.Spec.Hidden) * int64(c.M)
	arOnce := fabric.AllReduce(perAR, c.MP, link, 1)
	micros := (exPerInstance + c.M - 1) / c.M
	count := 6 * c.Spec.NumLayers * micros
	intraT := simtime.Duration(int64(arOnce) * int64(count))

	// Data-parallel gradient allreduce across instances.
	var dpT simtime.Duration
	if c.D > 1 {
		gradBytes := c.Spec.Params() / int64(c.MP) * model.BytesPerParam
		dpT = fabric.AllReduce(gradBytes, c.D, cluster.Inter, cluster.VM.GPUs)
	}

	opt := cost.OptimizerForParams(c.Spec.Params()/int64(c.MP), false)
	return computeT + intraT + dpT + opt, nil
}

// instanceLink picks the link carrying intra-layer allreduces: the
// VM-internal link when the instance fits in one VM, the inter-node
// link otherwise. This is the cliff that makes intra-layer partitioning
// collapse on commodity VMs (Figure 5) and on >16-way splits even in
// hyperclusters (Table 4).
func instanceLink(cluster hw.Cluster, mp int) hw.Link {
	if mp <= cluster.VM.GPUs {
		return cluster.VM.Intra
	}
	return cluster.Inter
}

// DataParallelTime estimates one mini-batch of plain data-parallel
// training (the BERT-large baseline): every GPU holds the full model,
// computes its share, then allreduces all gradients.
func DataParallelTime(spec *model.Spec, g, m, mTotal int, cluster hw.Cluster, fabric netsim.Fabric, cost compute.CostModel) (simtime.Duration, error) {
	if g < 1 {
		return 0, fmt.Errorf("baselines: no GPUs")
	}
	state := spec.Params() * model.BytesPerParamState
	if state+(2<<30) > cluster.VM.GPU.MemoryBytes {
		return 0, fmt.Errorf("baselines: %s does not fit one GPU for data parallelism", spec.Name)
	}
	exPerGPU := (mTotal + g - 1) / g
	flops := 4 * spec.FwdFlopsPerExample() * float64(exPerGPU)
	computeT := cost.RawKernelTime(flops, m) +
		simtime.Duration(int64(cost.LaunchOverhead)*int64(exPerGPU/maxInt(m, 1)+1))
	ar := fabric.AllReduce(spec.Params()*model.BytesPerParam, g, cluster.Inter, cluster.VM.GPUs)
	opt := cost.OptimizerForParams(spec.Params(), false)
	return computeT + ar + opt, nil
}

// BestMegatron sweeps tensor-parallel widths (powers of two up to the
// cluster) and returns the fastest feasible configuration for g GPUs.
func BestMegatron(spec *model.Spec, g, m, mTotal int, cluster hw.Cluster, fabric netsim.Fabric, cost compute.CostModel) (MegatronConfig, simtime.Duration, error) {
	var best MegatronConfig
	var bestT simtime.Duration
	found := false
	for mp := 1; mp <= g; mp *= 2 {
		d := g / mp
		if d < 1 {
			break
		}
		c := MegatronConfig{Spec: spec, MP: mp, D: d, M: m, MTotal: mTotal}
		t, err := MegatronTime(c, cluster, fabric, cost)
		if err != nil {
			continue
		}
		if !found || t < bestT {
			best, bestT, found = c, t, true
		}
	}
	if !found {
		return MegatronConfig{}, 0, fmt.Errorf("baselines: no feasible megatron config for %s on %d GPUs", spec.Name, g)
	}
	return best, bestT, nil
}

// intraPenalty models GEMM efficiency loss as a layer's matrices are
// split mp ways: each halving of the per-GPU matmul sheds ~6% of
// achievable flops.
func intraPenalty(mp int) float64 {
	p := 1.0
	for w := 2; w <= mp; w *= 2 {
		p *= 0.94
	}
	if p < 0.5 {
		p = 0.5
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
