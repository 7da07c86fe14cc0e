package autoconfig

import (
	"sync"
	"time"

	"repro/internal/gen2"
	"repro/internal/model"
	"repro/internal/obs"
)

// Planner owns the morph decisions of one training job across its
// lifetime. The paper's manager (§4.6) re-runs the §4.4 simulator
// sweep on every change in GPU availability, and on a spot fleet those
// changes arrive continuously (Figure 8 reconfigures dozens of times
// over 60 hours) — so the latency of each decision is wasted cluster
// time (§7.2). The Planner amortizes that cost with two caches that
// survive across sweeps:
//
//   - a cost cache keyed on (spec, p, m, d) holding the assembled
//     calibrate.Params.StageCosts slice and the simulated makespan
//     estimate for the candidate — every quantity the sweep
//     computes per candidate is deterministic in that key, so a
//     morphing timeline pays partition costs once per unique
//     configuration rather than once per sweep;
//   - a decision memo per GPU count g, so a fleet that revisits a size
//     (constant single-VM churn around a quantized level) replays the
//     stored Best choice without touching the simulator at all.
//
// Beside the cost cache, a plan memo keeps each depth's partition and
// each shape's micro-batch sizes (planMemo), so a decision plans only
// the shapes the Planner has never planned.
//
// Sweeps through a Planner remain bit-identical to the stateless
// Sweep/Best functions: cached values are exactly the values a cold
// evaluation computes (TestPlannerSecondSweepGolden pins this). A
// Planner is safe for concurrent use.
//
// Both caches are generation-bounded behind gen2.Map (segmented LRU):
// a months-long job cannot grow them without limit, and because every
// cached value is deterministic in its key, eviction only ever costs
// recomputation — never a different decision
// (TestPlannerCappedBitIdentical here,
// TestTimelineCappedPlannerBitIdentical at the manager level).
type Planner struct {
	// in, cache and dec are set once, by the constructor. cache locks
	// itself; mu guards dec's contents, the counters and met.
	in      Inputs
	cache   *costCache
	mu      sync.Mutex
	dec     *gen2.Map[int, plannerDecision]
	sweeps  uint64
	decHits uint64
	decMiss uint64
	skips   uint64
	met     *obs.Metrics
}

// Default cache bounds: generous for any realistic fleet (one decision
// per quantized fleet size, a handful of cost keys per size), small
// enough that a year of churn stays O(MB).
const (
	DefaultCostCacheCap = 4096
	DefaultDecisionCap  = 512
)

// plannerDecision memoizes one Best(g) outcome, including sticky
// infeasibility (a fleet too small for the model stays too small).
type plannerDecision struct {
	choice Choice
	err    error
}

// NewPlanner builds a Planner for the job described by in with the
// default cache bounds. Create one per job and keep it for the job's
// lifetime — the caches are the point.
func NewPlanner(in Inputs) *Planner {
	return NewPlannerCapped(in, DefaultCostCacheCap, DefaultDecisionCap)
}

// NewPlannerCapped builds a Planner with explicit cache bounds:
// costEntries keys per cost-cache generation and decisions entries per
// decision-memo generation (<= 0 means unbounded).
func NewPlannerCapped(in Inputs, costEntries, decisions int) *Planner {
	return &Planner{
		in:    in,
		cache: newCostCache(costEntries),
		dec:   gen2.New[int, plannerDecision](decisions, 0),
	}
}

// SetObserver points the Planner at a metrics registry. Each sweep (a
// Sweep, a Best memo miss or a dollar BestFor decision) then
// self-profiles its wall-clock latency into the
// "wall.planner.sweep_us" histogram — the ROADMAP item 2 measurement
// baseline — and Best(g) memo lookups count into
// "planner.decision_{hits,misses}". A nil registry (the default)
// disables observation; decisions are unaffected either way.
func (pl *Planner) SetObserver(m *obs.Metrics) {
	pl.mu.Lock()
	pl.met = m
	pl.mu.Unlock()
}

// sameCuts reports whether two cut-point sets partition identically —
// cached stages (and hence costs and estimates) depend on the cuts,
// not just the spec.
func sameCuts(a, b []model.CutPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Sweep evaluates every feasible pipeline depth for g GPUs (§4.4),
// serving repeated candidates from the lifetime cost cache. Output is
// bit-identical to the stateless Sweep.
func (pl *Planner) Sweep(g int) ([]Choice, error) {
	done := pl.startSweep()
	defer done(0)
	return sweep(pl.in, g, pl.cache)
}

// startSweep counts one sweep and returns a func to call when it ends
// with the number of depths its bound skipped, which also observes its
// wall time when an observer is set.
func (pl *Planner) startSweep() func(skips int) {
	pl.mu.Lock()
	met := pl.met
	pl.sweeps++
	pl.mu.Unlock()
	var start time.Time
	if met.Enabled() {
		start = time.Now()
	}
	return func(skips int) {
		pl.mu.Lock()
		pl.skips += uint64(skips)
		pl.mu.Unlock()
		if met.Enabled() {
			met.Observe("wall.planner.sweep_us", float64(time.Since(start).Microseconds()))
			met.Count("planner.sweeps", 1)
		}
	}
}

// Evaluate simulates a single explicit (P, D) shape through the
// lifetime cache, choosing the micro-batch size jointly: every
// memory-feasible profiled size up to the kernel sweet spot that
// pruneMicroSizes keeps is simulated and the fastest wins.
func (pl *Planner) Evaluate(p, d int) (Choice, error) {
	dp, err := pl.cache.planDepth(pl.in, p, d)
	if err != nil {
		return Choice{}, err
	}
	plans := []depthPlan{dp}
	plans[0].loadCosts(pl.in, pl.cache)
	presimulate(plans)
	return plans[0].evaluate(pl.in, pl.cache)
}

// Best returns the highest-throughput configuration for g GPUs,
// memoized per fleet size: the §4.6 manager quantizes fleet sizes
// before deciding, so spot churn revisits the same g constantly and
// replays the stored decision for free. A memo miss counts as one
// sweep but simulates only the depths a closed-form makespan bound
// cannot rule out (boundedBest); the decision, error included, is
// exactly the stateless Best's.
func (pl *Planner) Best(g int) (Choice, error) {
	pl.mu.Lock()
	if dec, ok := pl.dec.Get(g); ok {
		pl.decHits++
		met := pl.met
		pl.mu.Unlock()
		met.Count("planner.decision_hits", 1)
		return dec.choice, dec.err
	}
	pl.decMiss++
	met := pl.met
	pl.mu.Unlock()
	met.Count("planner.decision_misses", 1)

	done := pl.startSweep()
	choice, skips, err := boundedBest(pl.in, g, pl.cache)
	done(skips)

	pl.mu.Lock()
	pl.dec.Put(g, plannerDecision{choice: choice, err: err})
	pl.mu.Unlock()
	return choice, err
}

// Stats returns a snapshot of the Planner's cache effectiveness.
func (pl *Planner) Stats() PlannerStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return PlannerStats{
		Sweeps:            pl.sweeps,
		CostHits:          pl.cache.hits.Load(),
		CostMisses:        pl.cache.misses.Load(),
		CostComputes:      pl.cache.costComputes.Load(),
		SimRuns:           pl.cache.simRuns.Load(),
		CostEvictions:     pl.cache.evictions(),
		DecisionHits:      pl.decHits,
		DecisionMisses:    pl.decMiss,
		DecisionEvictions: pl.dec.Rotations(),
		BoundSkips:        pl.skips,
	}
}

// PlannerStats measures how much morph-decision work the lifetime
// caches absorbed — the observable behind the §7.2 requirement that
// reconfiguration decisions cost far less than the work they
// reschedule.
type PlannerStats struct {
	// Sweeps counts Sweep invocations, Best memo misses and dollar
	// BestFor decisions: one each, though a dollar decision's
	// candidate set spans four fleet levels.
	Sweeps uint64
	// CostHits and CostMisses count the cost-cache lookups of
	// candidates about to be simulated; a miss runs the simulator.
	CostHits, CostMisses uint64
	// CostComputes counts actual calibrate.Params.StageCosts
	// assemblies, including those only a decision's bound needed
	// (those are not cached); a second sweep of the same fleet
	// performs zero.
	CostComputes uint64
	// SimRuns counts candidates whose estimate was simulated (cache
	// misses that reached the simulator).
	SimRuns uint64
	// CostEvictions counts cost-cache generation rotations (a rotation
	// drops the oldest generation's keys).
	CostEvictions uint64
	// DecisionHits and DecisionMisses count Best(g) memo lookups.
	DecisionHits, DecisionMisses uint64
	// DecisionEvictions counts decision-memo generation rotations.
	DecisionEvictions uint64
	// BoundSkips counts the depths a Best or dollar BestFor decision
	// did not simulate because their makespan bound ruled them out of
	// the decision rule.
	BoundSkips uint64
}

// HitRate is the fraction of candidate evaluations served from the
// cost cache.
func (s PlannerStats) HitRate() float64 {
	total := s.CostHits + s.CostMisses
	if total == 0 {
		return 0
	}
	return float64(s.CostHits) / float64(total)
}
