// Package autoconfig implements Varuna's job morphing (§4.2–§4.4): on
// every change in available GPUs it re-derives the best-performing
// (P, D, m, Nm) configuration by sweeping pipeline depths through the
// parametrized simulator, while keeping the user's global mini-batch
// size M_total fixed — the correctness-preserving property that lets a
// running job reshape without touching hyper-parameters. Gradient
// accumulation absorbs the slack: when fewer GPUs are available the
// per-GPU micro-batch count Nm grows instead of the learning dynamics
// changing.
package autoconfig

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/calibrate"
	"repro/internal/gen2"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Inputs is everything morphing needs that does not change with G.
type Inputs struct {
	// Spec is the model being trained.
	Spec *model.Spec
	// Cuts are the identified cut-points (§5.1).
	Cuts []model.CutPoint
	// Params is the one-time scale-invariant calibration (§4.3).
	Params *calibrate.Params
	// GPUMem is the per-device memory.
	GPUMem int64
	// MTotal is the user's global mini-batch size, invariant across
	// morphs (§4.2).
	MTotal int
	// GPUsPerNode drives placement: which stage boundaries cross
	// nodes and how many allreduces share a NIC.
	GPUsPerNode int
}

// Choice is one evaluated configuration — a point of the §4.4 sweep,
// written the way the paper writes Table 3 rows (P×D with its
// micro-batch choice and predicted mini-batch time).
type Choice struct {
	// P is pipeline depth, D data-parallel width.
	P, D int
	// M is the micro-batch size, Nm the micro-batches per replica.
	M, Nm int
	// Stages is the cut-point grouping for this depth. It is
	// read-only: the Choices one Planner or Sweep returns at one depth
	// share it.
	Stages []model.Stage
	// Est is the simulator's predicted mini-batch time.
	Est simtime.Duration
	// GPUsUsed is P·D (≤ G when G is not a multiple of P).
	GPUsUsed int
	// Examples is the effective mini-batch (m·Nm·D), kept as close to
	// MTotal as divisibility allows.
	Examples int
}

// TotalExPerSec is the configuration's whole-job throughput.
func (c Choice) TotalExPerSec() float64 {
	if c.Est <= 0 {
		return 0
	}
	return float64(c.Examples) / c.Est.Seconds()
}

// ExPerSecPerGPU normalizes throughput by GPUs used.
func (c Choice) ExPerSecPerGPU() float64 {
	if c.GPUsUsed == 0 {
		return 0
	}
	return c.TotalExPerSec() / float64(c.GPUsUsed)
}

// String renders the configuration the way the paper writes it (P×D).
func (c Choice) String() string {
	return fmt.Sprintf("%dx%d (m=%d, Nm=%d, est %v)", c.P, c.D, c.M, c.Nm, c.Est)
}

// GradAccum computes the micro-batch count that preserves M_total for a
// given micro-batch size and data-parallel width: Nm = ⌈M/(m·D)⌉. This
// is the §4.2 accumulation rule — shrinking resources grow Nm, never
// the hyper-parameters.
func GradAccum(mTotal, m, d int) int {
	nm := (mTotal + m*d - 1) / (m * d)
	if nm < 1 {
		nm = 1
	}
	return nm
}

// interFlags marks the stage boundaries that cross nodes when p stages
// are packed onto nodes of gpusPerNode GPUs.
func interFlags(p, gpusPerNode int) []bool {
	flags := make([]bool, p)
	for i := 0; i < p-1; i++ {
		flags[i] = gpusPerNode <= 1 || (i+1)%gpusPerNode == 0
	}
	return flags
}

// costCache memoizes the per-candidate simulation inputs and outputs
// keyed on (spec, p, m, d): the calibrate.Params.StageCosts slice and
// the simulated makespan estimate at the Nm that GradAccum derives for
// the key. Both are deterministic in the key (stages and
// boundary flags are functions of p; the estimate runs the simulator
// on mean parameters with no jitter), so concurrent callers can safely
// share cached values — the simulator never mutates cost slices.
//
// Within a single sweep the candidate generation dedupes by p and
// tries each m at most once per candidate, so every key is distinct
// and the cache never hits; the payoff is cross-sweep. A Planner keeps
// one costCache alive for the lifetime of a job, and the repeated
// sweeps of a Figure-8 morphing timeline revisit the same keys
// constantly: fleet sizes recur, and nearby fleet sizes share the
// deepest feasible depths.
//
// On a months-long job the key space grows without bound (one entry
// per unique (p, m, d)), so the cache is generation-bounded behind a
// gen2.Map: recently-touched keys always survive — segmented-LRU
// behavior without per-entry bookkeeping — and since every cached
// value is deterministic in its key, eviction can only cost
// recomputation, never change results.
type costCache struct {
	mu sync.Mutex
	m  *gen2.Map[costKey, *costEntry]

	hits, misses          atomic.Uint64
	costComputes, simRuns atomic.Uint64

	// plans is the plan memo of the Inputs this cache serves.
	plans planMemo
}

// costKey scopes entries to the model being planned for: a cache
// accidentally shared across jobs can never serve one model's
// partition costs to another.
type costKey struct {
	spec    *model.Spec
	p, m, d int
}

// costEntry is one cached computation. nm records the micro-batch
// count the estimate was simulated at; a lookup with a different nm
// (possible only for an entry ImportState loaded with another Nm)
// reuses the costs but re-runs the estimate.
type costEntry struct {
	costs []sim.StageCosts
	nm    int
	est   simtime.Duration
}

// newCostCache builds a cache bounded to cap keys per generation
// (cap <= 0 is unbounded).
func newCostCache(cap int) *costCache {
	return &costCache{m: gen2.New[costKey, *costEntry](cap, 64)}
}

// lookup finds a key in either generation, promoting previous-generation
// hits into the current one.
func (c *costCache) lookup(key costKey) (*costEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Get(key)
}

// store inserts a freshly computed entry.
func (c *costCache) store(key costKey, e *costEntry) {
	c.mu.Lock()
	c.m.Put(key, e)
	c.mu.Unlock()
}

// evictions reports generation rotations (each drops the oldest
// generation's keys).
func (c *costCache) evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Rotations()
}

// snapshot returns every live entry (both generations, current wins),
// for state export.
func (c *costCache) snapshot() map[costKey]*costEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[costKey]*costEntry, c.m.Len())
	c.m.Each(func(k costKey, e *costEntry) { out[k] = e })
	return out
}

// estimate commits one micro-batch size of dp. A hit serves the cached
// estimate. A miss stores the estimate known before the commit (found
// by the cost pass or run by presimulate), or simulates it inline when
// there is none, which happens only when presimulate's run failed, so
// that its error comes back here. A size whose costs the cost pass
// could not assemble fails here with the same error.
func (c *costCache) estimate(in Inputs, dp *depthPlan, mp microPlan) (simtime.Duration, error) {
	key := costKey{spec: in.Spec, p: dp.p, m: mp.m, d: dp.d}
	if e, ok := c.lookup(key); ok && e.nm == mp.nm {
		c.hits.Add(1)
		return e.est, nil
	}
	c.misses.Add(1)
	costs, est := mp.costs, mp.est
	if costs == nil {
		var err error
		if costs, err = dp.assemble(in, mp.m); err != nil {
			return 0, err
		}
		c.costComputes.Add(1)
	}
	if est <= 0 {
		var err error
		if est, err = sim.EstimateMakespan(simConfig(dp.p, mp.nm, costs)); err != nil {
			return 0, err
		}
	}
	c.simRuns.Add(1)
	c.store(key, &costEntry{costs: costs, nm: mp.nm, est: est})
	return est, nil
}

// costsFor is the cost pass of one size: the key's StageCosts, and its
// estimate when one was simulated at mp.nm (zero otherwise). Costs of
// an uncached key are assembled and counted in CostComputes but not
// stored: the cache holds only simulated entries, which is what
// ExportState persists.
func (c *costCache) costsFor(in Inputs, dp *depthPlan, mp microPlan) ([]sim.StageCosts, simtime.Duration, error) {
	if e, ok := c.lookup(costKey{spec: in.Spec, p: dp.p, m: mp.m, d: dp.d}); ok {
		if e.nm != mp.nm {
			return e.costs, 0, nil
		}
		return e.costs, e.est, nil
	}
	costs, err := dp.assemble(in, mp.m)
	if err != nil {
		return nil, 0, err
	}
	c.costComputes.Add(1)
	return costs, 0, nil
}

// simConfig is the simulator input of one candidate: the Varuna
// schedule on mean costs, no jitter.
func simConfig(p, nm int, costs []sim.StageCosts) sim.Config {
	return sim.Config{Depth: p, Micros: nm, Policy: schedule.Varuna, Costs: costs}
}

// depthPlan is one (P, D) candidate before simulation: its balanced
// partition and the micro-batch sizes evaluate simulates.
//
// Every evaluation runs the same pipeline over its depths: planDepth,
// the cost pass (loadCosts) on the caller, one presimulate over every
// depth the call needs, and the commit (evaluate) on the caller, depth
// by depth in candidate order and size by size within a depth. A sweep
// and Planner.Evaluate presimulate all their depths at once; a bounded
// decision's walk presimulates the one depth it steps to. Only the
// commit stores into the cache, so its contents and counters do not
// depend on GOMAXPROCS.
type depthPlan struct {
	p, d   int
	stages []model.Stage
	micros []microPlan
}

// microPlan is one micro-batch size of a depthPlan. costs are what the
// cost pass assembled or found cached. est, when positive, is the
// makespan of costs at nm known before the commit: cached at nm when
// the cost pass ran, or run by presimulate.
type microPlan struct {
	m, nm int
	costs []sim.StageCosts
	est   simtime.Duration
}

// planMemo holds what planning a shape derives from the Inputs alone:
// each depth's balanced partition with its error, the kernel sweet
// spot (PickMicroSize), and the micro-batch sizes pruneMicroSizes keeps
// per (P, D). A costCache serves one Inputs, which a Planner fixes for
// its life, so the memo is never invalidated. It fills lazily, as
// shapes are planned, and holds at most len(Cuts)+1 partitions and one
// list of at most three sizes per shape planned; a shape planDepth
// refuses never reaches it. It is safe for concurrent use.
type planMemo struct {
	once   sync.Once
	sweet  int
	depths []depthMemo // indexed by p-1

	mu    sync.Mutex
	sizes map[shape][]int
}

// depthMemo is one depth's partition, computed once.
type depthMemo struct {
	once   sync.Once
	stages []model.Stage
	err    error
}

// planDepth partitions the model for depth p and picks the micro-batch
// sizes worth simulating (pruneMicroSizes), through the plan memo. The
// stages are shared by every plan and Choice at depth p; micros is
// fresh, for the cost pass and presimulate write into it.
func (c *costCache) planDepth(in Inputs, p, d int) (depthPlan, error) {
	if p < 1 || d < 1 {
		return depthPlan{}, fmt.Errorf("autoconfig: bad shape %dx%d", p, d)
	}
	if p > len(in.Cuts)+1 {
		// Partition refuses the depth before doing any work.
		_, err := model.Partition(in.Spec, in.Cuts, p, true)
		return depthPlan{}, err
	}
	pm := &c.plans
	pm.once.Do(func() {
		pm.sweet = in.Params.PickMicroSize(0.05)
		pm.depths = make([]depthMemo, len(in.Cuts)+1)
		pm.sizes = make(map[shape][]int)
	})
	dm := &pm.depths[p-1]
	dm.once.Do(func() { dm.stages, dm.err = model.Partition(in.Spec, in.Cuts, p, true) })
	if dm.err != nil {
		return depthPlan{}, dm.err
	}
	key := shape{p: p, d: d}
	pm.mu.Lock()
	sizes, ok := pm.sizes[key]
	pm.mu.Unlock()
	if !ok {
		// A racing fill computes the same sizes.
		sizes = pruneMicroSizes(in, dm.stages, p, d, pm.sweet)
		pm.mu.Lock()
		pm.sizes[key] = sizes
		pm.mu.Unlock()
	}
	dp := depthPlan{p: p, d: d, stages: dm.stages, micros: make([]microPlan, len(sizes))}
	for i, m := range sizes {
		dp.micros[i] = microPlan{m: m, nm: GradAccum(in.MTotal, m, d)}
	}
	return dp, nil
}

// loadCosts is the cost pass: it leaves on each size, in order, what
// costsFor returns. It stops at the first size whose costs fail to
// assemble, leaving that size's costs and the rest nil; evaluate meets
// the same error there.
func (dp *depthPlan) loadCosts(in Inputs, cache *costCache) {
	for i := range dp.micros {
		mp := &dp.micros[i]
		var err error
		if mp.costs, mp.est, err = cache.costsFor(in, dp, *mp); err != nil {
			return
		}
	}
}

// presimulate runs, on min(GOMAXPROCS, n) workers with the caller as
// one, the n simulations the commits of plans will need: every size
// whose costs the cost pass left but whose estimate it did not find
// cached. One counter hands out the sizes of every plan in order. The
// runs touch neither the cache nor its counters. A run that fails
// leaves est at zero, and evaluate simulates that size inline, so that
// its error comes back there. A size the commit never reaches, because
// an earlier size of its depth errored, is neither cached nor counted.
func presimulate(plans []depthPlan) {
	n := 0
	for _, dp := range plans {
		for _, mp := range dp.micros {
			if mp.costs != nil && mp.est <= 0 {
				n++
			}
		}
	}
	if n == 0 {
		return
	}
	var next atomic.Int32
	work := func() {
		// Counter values rise for each worker, so j and base, the plan
		// holding size i and the index of its first size, only move on.
		j, base := 0, 0
		for i := int(next.Add(1)) - 1; ; i = int(next.Add(1)) - 1 {
			for j < len(plans) && i-base >= len(plans[j].micros) {
				base += len(plans[j].micros)
				j++
			}
			if j == len(plans) {
				return
			}
			dp := &plans[j]
			if mp := &dp.micros[i-base]; mp.costs != nil && mp.est <= 0 {
				if est, err := sim.EstimateMakespan(simConfig(dp.p, mp.nm, mp.costs)); err == nil {
					mp.est = est
				}
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// assemble builds the per-stage simulator costs at micro-batch size m.
func (dp *depthPlan) assemble(in Inputs, m int) ([]sim.StageCosts, error) {
	return in.Params.StageCosts(in.Spec, dp.stages, m, dp.d, interFlags(dp.p, in.GPUsPerNode))
}

// choice is the configuration mp describes with mini-batch time est.
func (dp *depthPlan) choice(mp microPlan, est simtime.Duration) Choice {
	return Choice{
		P: dp.p, D: dp.d, M: mp.m, Nm: mp.nm,
		Stages:   dp.stages,
		Est:      est,
		GPUsUsed: dp.p * dp.d,
		Examples: mp.m * mp.nm * dp.d,
	}
}

// evaluate commits every micro-batch size of dp through the cache, in
// size order, and keeps the fastest, the first among equals: m trades
// kernel efficiency (bigger is better, §4.1) against pipeline
// efficiency (bigger m means fewer micro-batches and more bubble —
// constraint 3 of Figure 2). An error at any size fails the whole
// depth.
func (dp *depthPlan) evaluate(in Inputs, cache *costCache) (Choice, error) {
	var best Choice
	found := false
	for _, mp := range dp.micros {
		est, err := cache.estimate(in, dp, mp)
		if err != nil {
			return Choice{}, err
		}
		c := dp.choice(mp, est)
		if !found || c.TotalExPerSec() > best.TotalExPerSec() {
			best = c
			found = true
		}
	}
	if !found {
		return Choice{}, fmt.Errorf("autoconfig: %s does not fit at P=%d on this GPU memory", in.Spec.Name, dp.p)
	}
	return best, nil
}

// pruneMicroSizes ranks the memory-feasible profiled micro-batch sizes
// by an analytic throughput score — kernel time per example times the
// fill/drain bubble factor — and keeps the top three for simulation.
// The score orders candidates well enough that simulating the rest is
// wasted work during a morph, where decision latency matters (§7.2).
func pruneMicroSizes(in Inputs, stages []model.Stage, p, d, sweet int) []int {
	type scored struct {
		m     int
		score float64
	}
	var cands []scored
	for _, m := range in.Params.MicroSizes {
		if m > sweet {
			break
		}
		nm := GradAccum(in.MTotal, m, d)
		if !fits(in, stages, m, nm, p) {
			continue
		}
		perExample := in.Params.PerExampleFwdAt(m)
		bubble := float64(nm) / float64(nm+p-1)
		cands = append(cands, scored{m: m, score: bubble / perExample})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	if len(cands) > 3 {
		cands = cands[:3]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.m
	}
	sort.Ints(out)
	return out
}

// fits checks every stage of the partition against GPU memory.
func fits(in Inputs, stages []model.Stage, m, nm, p int) bool {
	for _, st := range stages {
		mm := model.MemoryModel{Spec: in.Spec, Stage: st, WeightCopies: 1}
		if !mm.Fits(m, nm, p, in.GPUMem) {
			return false
		}
	}
	return true
}

// Sweep evaluates every feasible pipeline depth for g GPUs, in O(G)
// total simulator invocations (§4.4): P runs from the smallest depth
// where the model fits up to the number of cut-points, one balanced
// cut-point assignment per depth. Every micro-batch size of every
// depth is simulated on min(GOMAXPROCS, n) workers — decision latency
// during a morph is wasted cluster time (§7.2) — and committed in
// candidate order, so the output does not depend on GOMAXPROCS. It is
// the stateless full-sweep reference: no bound, no lifetime cache.
func Sweep(in Inputs, g int) ([]Choice, error) {
	return sweep(in, g, newCostCache(0))
}

// sweep is Sweep through cache: every depth's cost pass, one
// presimulate over all of them, then the commits in ascending D. A
// depth that errors does not fit; deeper may.
func sweep(in Inputs, g int, cache *costCache) ([]Choice, error) {
	shapes, err := sweepShapes(in, g)
	if err != nil {
		return nil, err
	}
	plans := make([]depthPlan, 0, len(shapes))
	for _, sh := range shapes {
		if dp, err := cache.planDepth(in, sh.p, sh.d); err == nil {
			dp.loadCosts(in, cache)
			plans = append(plans, dp)
		}
	}
	presimulate(plans)
	var out []Choice
	for i := range plans {
		if c, err := plans[i].evaluate(in, cache); err == nil {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, errNoFit(in, g)
	}
	return out, nil
}

// shape is one (P, D) candidate of a sweep.
type shape struct{ p, d int }

// sweepShapes enumerates the depths a sweep of g GPUs evaluates, in
// ascending D. For a fixed data-parallel width D the deepest pipeline
// that the cut-points allow, P = min(⌊G/D⌋, maxP), strictly dominates
// shallower ones at the same D: same allreduce cost, fewer idle GPUs.
// Sweeping the distinct D values therefore covers the configuration
// space in O(G/P_min) simulator calls instead of O(maxP) — the §4.4
// exploration bound.
func sweepShapes(in Inputs, g int) ([]shape, error) {
	if g < 1 {
		return nil, fmt.Errorf("autoconfig: no GPUs")
	}
	maxP := len(in.Cuts) + 1
	if maxP > g {
		maxP = g
	}
	var out []shape
	seen := make(map[int]bool)
	for d := 1; d <= g; d++ {
		p := g / d
		if p > maxP {
			p = maxP
		}
		if p < 1 {
			break
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, shape{p: p, d: g / p})
	}
	return out, nil
}

// errNoFit is the sweep's error when no depth is feasible.
func errNoFit(in Inputs, g int) error {
	return fmt.Errorf("autoconfig: %s does not fit on %d×%s GPUs", in.Spec.Name, g, humanBytes(in.GPUMem))
}

// Best picks the highest-total-throughput configuration for g GPUs —
// the decision rule the §4.6 manager applies after every fleet change.
// It is the stateless full-sweep reference for Planner.Best.
func Best(in Inputs, g int) (Choice, error) {
	out, err := Sweep(in, g)
	if err != nil {
		return Choice{}, err
	}
	return top(out), nil
}

// top reduces sweep output (ascending D) to its highest-throughput
// choice, the first among equals.
func top(out []Choice) Choice {
	t := out[0]
	for _, c := range out[1:] {
		if c.TotalExPerSec() > t.TotalExPerSec() {
			t = c
		}
	}
	return t
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
