// Package restart models the cost of one Varuna reconfiguration
// (§4.5, §4.6). The manager historically charged a flat constant for
// every morph; with warm planner sweeps costing well under a
// millisecond, that constant became the dominant — and least
// principled — term in every reconfiguration decision. This package
// replaces it with a calibrated price built from what a morph actually
// does:
//
//  1. stop the running tasks at a mini-batch boundary,
//  2. flush the state still dirty since the last continuous
//     checkpoint (sharded across data-parallel replicas, §4.5),
//  3. redistribute state: every new (stage, replica) slot fetches the
//     layers it must now hold but didn't hold under the old
//     partition, over the cluster fabric,
//  4. restart and re-warm worker processes (spawn, device context,
//     collective re-initialization).
//
// Because the price depends on the checkpoint's per-layer byte sizes
// and on the old→new stage→layer mapping, a small reshape of a small
// model costs seconds while a deep reshape of a large model costs
// minutes — exactly the gradient a morph-or-hold decision needs.
package restart

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

// Costs breaks one reconfiguration's downtime into its phases.
type Costs struct {
	// Stop is the time to quiesce running tasks at a mini-batch
	// boundary.
	Stop simtime.Duration
	// Flush is the time to persist state dirty since the last
	// continuous checkpoint, written in parallel by the D replica
	// shards of each stage (§4.5).
	Flush simtime.Duration
	// Redistribute is the time for the new (stage, replica) slots to
	// fetch the layers they don't already hold, bounded by the slower
	// of the busiest fetcher and the busiest server.
	Redistribute simtime.Duration
	// Restart is process spawn + device context + collective re-init.
	Restart simtime.Duration
}

// Total is the modeled downtime of the morph.
func (c Costs) Total() simtime.Duration {
	return c.Stop + c.Flush + c.Redistribute + c.Restart
}

// String renders the breakdown.
func (c Costs) String() string {
	return fmt.Sprintf("total %v (stop %v, flush %v, redist %v, restart %v)",
		c.Total(), c.Stop, c.Flush, c.Redistribute, c.Restart)
}

// Assignment describes one running configuration for costing purposes:
// the stage partition over the model's ops and the data-parallel
// width. The zero value means "nothing running" (cold start).
type Assignment struct {
	// Stages is the pipeline partition (contiguous op ranges).
	Stages []model.Stage
	// D is the data-parallel width.
	D int
}

// Empty reports whether the assignment describes a running job.
func (a Assignment) Empty() bool { return len(a.Stages) == 0 || a.D < 1 }

// workers reports the number of (stage, replica) slots.
func (a Assignment) workers() int { return len(a.Stages) * a.D }

// Model prices reconfigurations of one job on one cluster. All inputs
// are deterministic, so identical (old, new, dirty) queries price
// identically — the property that lets the Planner memoize decisions
// built on top of it.
type Model struct {
	// LayerBytes is the per-op training-state size: params + grads +
	// fp32 master + Adam moments (model.BytesPerParamState per
	// parameter), the same unit the §4.5 checkpoint accounts in.
	LayerBytes []int64
	// FlushBps is the per-VM local-SSD write bandwidth the continuous
	// checkpointer flushes at (§4.5 writes locally; cloud upload is
	// background).
	FlushBps float64
	// Fabric and Link describe the network state redistribution rides:
	// the cluster's inter-node link under its contention model, the
	// same fabric the testbed grounds transfers in.
	Fabric netsim.Fabric
	Link   hw.Link
	// StopTime is the quiesce cost; RestartTime is process spawn +
	// device context + collective re-initialization.
	StopTime, RestartTime simtime.Duration
	// Cluster is the underlying pool; when its Topo is defined,
	// redistribution is priced per link class over the actual path
	// between serving and fetching failure domains instead of the
	// flat contended Inter link.
	Cluster hw.Cluster
	// Replication is the checkpoint replication policy; when enabled
	// (and the topology is defined) dirty flushes also push shards to
	// the cross-domain replicas, and Failover prices a full-state
	// cross-domain fetch.
	Replication checkpoint.Policy
}

// Default fixed phase costs. The paper's flat 4-minute figure bundled
// everything; measured systems put quiesce at seconds and full process
// re-warm (spawn, CUDA context, NCCL rings) at tens of seconds.
const (
	DefaultFlushBps            = 500e6 // local SSD, bytes/s
	DefaultStop                = 5 * simtime.Second
	DefaultRestart             = 30 * simtime.Second
	defaultEthernetContention  = 1.3
	defaultDedicatedContention = 1.0
)

// NewModel builds the reconfiguration-cost model for spec running on
// cluster. Layer sizes come from the spec's op-level parameter counts;
// bandwidths from the hardware catalogue (the same contention rule the
// testbed applies to low-priority fleets).
func NewModel(spec *model.Spec, cluster hw.Cluster) *Model {
	lb := make([]int64, len(spec.Ops))
	for i, op := range spec.Ops {
		lb[i] = op.Params * model.BytesPerParamState
	}
	return newModel(lb, cluster)
}

// NewModelFromManifest builds the cost model from a real checkpoint's
// per-layer byte accounting instead of analytic spec sizes — what a
// deployment prices from, since the manifest records exactly what a
// flush or redistribution will move.
func NewModelFromManifest(man checkpoint.Manifest, cluster hw.Cluster) *Model {
	return newModel(LayerBytesFromManifest(man), cluster)
}

func newModel(layerBytes []int64, cluster hw.Cluster) *Model {
	contention := defaultDedicatedContention
	if cluster.LowPriority {
		contention = defaultEthernetContention
	}
	return &Model{
		LayerBytes:  layerBytes,
		FlushBps:    DefaultFlushBps,
		Fabric:      netsim.New(contention),
		Link:        cluster.Inter,
		StopTime:    DefaultStop,
		RestartTime: DefaultRestart,
		Cluster:     cluster,
	}
}

// stageOps lists the op indices of one stage.
func stageOps(st model.Stage) []int {
	out := make([]int, 0, st.LastOp-st.FirstOp+1)
	for i := st.FirstOp; i <= st.LastOp; i++ {
		out = append(out, i)
	}
	return out
}

// rangeBytes sums the state bytes of ops in [first, last] that fall
// outside [exFirst, exLast] (pass exFirst > exLast to exclude nothing).
func (m *Model) rangeBytes(first, last, exFirst, exLast int) int64 {
	var n int64
	for i := first; i <= last && i < len(m.LayerBytes); i++ {
		if i >= exFirst && i <= exLast {
			continue
		}
		n += m.LayerBytes[i]
	}
	return n
}

// Price models the downtime of reconfiguring from old to new. dirty
// reports whether mini-batches completed since the last continuous
// checkpoint (they must be flushed before state can move); a
// preemption rollback arrives with dirty=false because the lost work
// was already discarded to the last checkpoint.
//
// A pure replacement — identical partition and width — prices at the
// redistribution-free restart cost: every surviving slot already holds
// exactly the state its new assignment needs.
func (m *Model) Price(old, new Assignment, dirty bool) Costs {
	var c Costs
	if new.Empty() {
		return c
	}
	if !old.Empty() {
		c.Stop = m.StopTime
		if dirty {
			c.Flush = m.flushTime(old)
			if push := m.ReplicationOverhead(old); push > c.Flush {
				c.Flush = push
			}
		}
	}
	if m.Cluster.Topo.Defined() {
		c.Redistribute = m.redistributeTimeTopo(old, new)
	} else {
		c.Redistribute = m.redistributeTime(old, new)
	}
	c.Restart = m.RestartTime
	return c
}

// flushTime prices the checkpoint flush: replica r of each stage
// writes every D-th of the stage's layers (checkpoint.ShardLayers), in
// parallel across all slots, so the flush completes when the largest
// shard hits local SSD.
func (m *Model) flushTime(a Assignment) simtime.Duration {
	if m.FlushBps <= 0 {
		return 0
	}
	return simtime.FromSeconds(float64(m.worstShard(a)) / m.FlushBps)
}

// worstShard is the largest per-slot checkpoint shard of the
// assignment — the §4.5 sharded write that bounds flush time.
func (m *Model) worstShard(a Assignment) int64 {
	var worst int64
	for _, st := range a.Stages {
		ops := stageOps(st)
		for r := 0; r < a.D; r++ {
			var shard int64
			for _, l := range checkpoint.ShardLayers(ops, a.D, r) {
				if l < len(m.LayerBytes) {
					shard += m.LayerBytes[l]
				}
			}
			if shard > worst {
				worst = shard
			}
		}
	}
	return worst
}

// redistributeTime prices the state movement of the old→new stage→layer
// remapping. Slots keep their flat rank across the morph, numbered
// replica-major (rank = replica · P + stage), so a width-only morph
// keeps every surviving rank on its old stage and fetches nothing for
// it; a fresh rank holds nothing. Fetches run concurrently, so the
// destination side is bounded by the busiest fetcher. On the source
// side each layer is served by the D_old replicas that hold it —
// checkpoint sharding splits the upload load — so the bound is the
// busiest old stage's per-replica upload. The transfer completes at
// the slower of the two.
func (m *Model) redistributeTime(old, new Assignment) simtime.Duration {
	demand := make([]int, len(m.LayerBytes))
	var maxFetch int64
	for w := 0; w < new.workers(); w++ {
		ns := new.Stages[w%len(new.Stages)]
		exFirst, exLast := 1, 0 // exclude nothing
		if !old.Empty() && w < old.workers() {
			os := old.Stages[w%len(old.Stages)]
			exFirst, exLast = os.FirstOp, os.LastOp
		}
		fetch := m.rangeBytes(ns.FirstOp, ns.LastOp, exFirst, exLast)
		if fetch > maxFetch {
			maxFetch = fetch
		}
		for i := ns.FirstOp; i <= ns.LastOp && i < len(demand); i++ {
			if i < exFirst || i > exLast {
				demand[i]++
			}
		}
	}
	if maxFetch == 0 {
		return 0
	}
	var maxServe int64
	if !old.Empty() {
		for _, st := range old.Stages {
			var upload int64
			for i := st.FirstOp; i <= st.LastOp && i < len(m.LayerBytes); i++ {
				upload += m.LayerBytes[i] * int64(demand[i])
			}
			perReplica := upload / int64(old.D)
			if perReplica > maxServe {
				maxServe = perReplica
			}
		}
	}
	dest := m.Fabric.PointToPoint(maxFetch, m.Link)
	if maxServe > maxFetch {
		return m.Fabric.PointToPoint(maxServe, m.Link)
	}
	return dest
}

// LayerBytesFromManifest builds the model's per-layer byte vector from
// a real checkpoint's accounting instead of analytic spec sizes — the
// path a live deployment prices from, since the manifest records what
// the flush and redistribution will actually move (varuna-ckpt prices
// its morph-resume demo this way). Layers absent from the manifest
// price as zero.
func LayerBytesFromManifest(man checkpoint.Manifest) []int64 {
	n := man.NumLayers
	for _, l := range man.Layers {
		if l >= n {
			n = l + 1
		}
	}
	out := make([]int64, n)
	for i, l := range man.Layers {
		if i < len(man.LayerBytes) {
			out[l] = man.LayerBytes[i]
		}
	}
	return out
}

// EvenStages splits n layers into p contiguous stages — the layer→stage
// mapping engine.New uses, reconstructed for costing a checkpoint whose
// job is not running.
func EvenStages(n, p int) []model.Stage {
	if p < 1 || n < 1 {
		return nil
	}
	if p > n {
		p = n
	}
	out := make([]model.Stage, p)
	first := 0
	for i := 0; i < p; i++ {
		last := ((i + 1) * n / p) - 1
		out[i] = model.Stage{Index: i, FirstOp: first, LastOp: last}
		first = last + 1
	}
	return out
}
