package autoconfig

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/simtime"
)

// candSet is the candidate set of one decision, evaluated lazily: the
// (P, D) shapes the sweeps of the decision's fleet levels take, first
// occurrence kept, each with a makespan bound per micro-batch size. A
// depth is simulated only when the decision rule cannot rule it out
// by its bound. A walk simulates depths one at a time, in an order that
// depends only on the inputs and the cache contents, never on
// GOMAXPROCS or goroutine timing; within a depth, presimulate runs the
// micro-batch sizes concurrently and evaluate commits them serially.
type candSet struct {
	in    Inputs
	g     int
	cache *costCache
	// plans and depths are indexed alike: level order, ascending D
	// within a level.
	plans  []depthPlan
	depths []candDepth
}

// candDepth is the decision state of one depth of a candSet.
type candDepth struct {
	// bounds holds, per micro-batch size, the cached estimate when the
	// cost pass found one at the size's Nm (exact), else
	// sim.MakespanLowerBound (never above the estimate). It is nil when
	// some size offers no bound, or its costs fail to assemble (evaluate
	// then meets the same error).
	bounds    []simtime.Duration
	simulated bool
	ok        bool // simulated without error
	choice    Choice
}

// level is a fraction of the fleet whose sweep shapes join a
// decision's candidate set.
type level struct{ num, den int }

var (
	// fullFleet is the one level of a max-throughput decision.
	fullFleet = []level{{1, 1}}
	// shrinkLevels are the levels of a dollar decision. A sweep of g
	// mostly yields shapes that use nearly the whole fleet (for every D
	// the deepest feasible P dominates at that D), so it offers little
	// room to shrink; the smaller levels give the objective real exit
	// points when the price makes capacity uneconomical.
	shrinkLevels = []level{{1, 1}, {3, 4}, {1, 2}, {1, 4}}
)

// newCandSet plans, runs the cost pass of, and bounds every shape the
// sweeps of g's levels take. Levels below one GPU are skipped. A depth
// that cannot be partitioned, or that leaves no micro-batch size,
// fails evaluate without simulating, so it is dropped here as a sweep
// drops it.
func newCandSet(in Inputs, g int, levels []level, cache *costCache) (*candSet, error) {
	if g < 1 {
		return nil, fmt.Errorf("autoconfig: no GPUs")
	}
	s := &candSet{in: in, g: g, cache: cache}
	seen := make(map[shape]bool)
	for _, lv := range levels {
		lg := g * lv.num / lv.den
		if lg < 1 {
			continue
		}
		shapes, err := sweepShapes(in, lg)
		if err != nil {
			return nil, err
		}
		for _, sh := range shapes {
			if seen[sh] {
				continue
			}
			seen[sh] = true
			dp, err := cache.planDepth(in, sh.p, sh.d)
			if err != nil || len(dp.micros) == 0 {
				continue
			}
			dp.loadCosts(in, cache)
			s.plans = append(s.plans, dp)
		}
	}
	s.depths = make([]candDepth, len(s.plans))
	for i := range s.plans {
		s.depths[i].bounds = s.plans[i].bounds()
	}
	return s, nil
}

// bounds returns the makespan bound of each micro-batch size of dp
// after its cost pass (see candDepth.bounds).
func (dp *depthPlan) bounds() []simtime.Duration {
	out := make([]simtime.Duration, len(dp.micros))
	for i, mp := range dp.micros {
		if mp.costs == nil {
			return nil
		}
		est := mp.est
		if est <= 0 {
			if est = sim.MakespanLowerBound(simConfig(dp.p, mp.nm, mp.costs)); est <= 0 {
				return nil
			}
		}
		out[i] = est
	}
	return out
}

// ceilings bounds from above, per depth, the effective throughput
// under ec of the choice evaluate returns: the largest over the
// depth's micro-batch sizes at its bound, +Inf without one. For fixed
// Examples, EffectiveExPerSec can only fall as Est grows, in float64
// too, since every step is a monotone, correctly rounded operation.
func (s *candSet) ceilings(ec Econ) []float64 {
	ceil := make([]float64, len(s.depths))
	for i, d := range s.depths {
		if d.bounds == nil {
			ceil[i] = math.Inf(1)
			continue
		}
		dp := &s.plans[i]
		for j, mp := range dp.micros {
			ceil[i] = max(ceil[i], ec.EffectiveExPerSec(dp.choice(mp, d.bounds[j])))
		}
	}
	return ceil
}

// simulate evaluates depth i, once, and reports whether it produced a
// choice; a depth that errors does not fit, as in a sweep. It
// presimulates depth i alone unless the caller presimulated it
// already.
func (s *candSet) simulate(i int) bool {
	d := &s.depths[i]
	if !d.simulated {
		d.simulated = true
		presimulate(s.plans[i : i+1])
		c, err := s.plans[i].evaluate(s.in, s.cache)
		d.choice, d.ok = c, err == nil
	}
	return d.ok
}

// order returns the depth indices, stably sorted by less.
func (s *candSet) order(less func(a, b int) bool) []int {
	idx := make([]int, len(s.depths))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	return idx
}

// result returns the simulated choices in set order, how many depths
// went unsimulated, and the sweep's error when no depth fits. Every
// walk simulates all depths until one fits, so an empty result means
// no depth of the set fits.
func (s *candSet) result() ([]Choice, int, error) {
	var out []Choice
	skips := 0
	for _, d := range s.depths {
		switch {
		case d.ok:
			out = append(out, d.choice)
		case !d.simulated:
			skips++
		}
	}
	if len(out) == 0 {
		return nil, skips, errNoFit(s.in, s.g)
	}
	return out, skips, nil
}

// walkMax simulates depths in descending ceiling order, ties in set
// order, until a ceiling falls strictly below the best effective
// throughput simulated so far. Every depth left has a ceiling that
// low, so none can match the best, let alone beat it: every depth
// reaching the top is simulated.
func (s *candSet) walkMax(ec Econ, ceil []float64) {
	best := math.Inf(-1)
	for _, d := range s.depths {
		if d.ok {
			best = max(best, ec.EffectiveExPerSec(d.choice))
		}
	}
	for _, i := range s.order(func(a, b int) bool { return ceil[a] > ceil[b] }) {
		if ceil[i] < best {
			return
		}
		if s.simulate(i) {
			best = max(best, ec.EffectiveExPerSec(s.depths[i].choice))
		}
	}
}

// walkBaseline simulates the depths baselineCost needs at rate: in
// ascending $/example floor (rate·GPUs over the ceiling), up to the
// first floor strictly above the best σ simulated so far. A floor is
// never above its depth's σ, so every depth that can reach the
// minimum is simulated, ties too, since the argmin keeps the first of
// them. While no σ is finite, no floor stops the walk.
func (s *candSet) walkBaseline(ec Econ, ceil []float64, rate float64) {
	floor := make([]float64, len(s.depths))
	for i, dp := range s.plans {
		floor[i] = dollarsPerExample(rate, dp.p*dp.d, ceil[i])
	}
	best := math.Inf(1)
	for _, i := range s.order(func(a, b int) bool { return floor[a] < floor[b] }) {
		if floor[i] > best {
			return
		}
		if !s.simulate(i) {
			continue
		}
		c := s.depths[i].choice
		if ex := ec.EffectiveExPerSec(c); ex > 0 {
			best = min(best, dollarsPerExample(rate, c.GPUsUsed, ex))
		}
	}
}

// walkDeadline simulates what deadlineChoice needs when a rate is
// required: the depths whose ceiling reaches need (no other depth can
// clear it), in ascending GPU count, through every tie at the first
// count where one clears need. It reports whether one did; if none
// did, no depth can.
func (s *candSet) walkDeadline(ec Econ, ceil []float64, need float64) bool {
	gpus := func(i int) int { return s.plans[i].p * s.plans[i].d }
	cleared := -1
	for _, i := range s.order(func(a, b int) bool { return gpus(a) < gpus(b) }) {
		if ceil[i] < need {
			continue
		}
		if cleared >= 0 && gpus(i) > cleared {
			break
		}
		if s.simulate(i) && cleared < 0 && !(ec.EffectiveExPerSec(s.depths[i].choice) < need) {
			cleared = gpus(i)
		}
	}
	return cleared >= 0
}

// boundedBest returns exactly what Best does: the max-throughput
// client of the candidate set, over g's one level with a zero Econ
// (so effective throughput is nameplate). walkMax simulates every
// depth that can reach the top throughput, and top over the simulated
// depths in ascending-D order breaks ties as Best does. Whole depths
// are skipped, never single micro-batch sizes, so a depth that a
// sweep drops because one of its sizes errors is dropped here too.
// boundedBest also reports how many depths the bound skipped.
func boundedBest(in Inputs, g int, cache *costCache) (Choice, int, error) {
	s, err := newCandSet(in, g, fullFleet, cache)
	if err != nil {
		return Choice{}, 0, err
	}
	s.walkMax(Econ{}, s.ceilings(Econ{}))
	out, skips, err := s.result()
	if err != nil {
		return Choice{}, skips, err
	}
	return top(out), skips, nil
}

// boundedDollar returns the candidates of g's shrink levels that a
// dollar decision under obj and ec can reach, in sortChoices order:
// baselineCost, minDollarChoice and deadlineChoice return over them
// exactly what they return over the full set. It also reports how
// many depths went unsimulated.
//
//   - baselineCost: walkBaseline.
//   - minDollarChoice passes over every candidate whose effective
//     throughput is at most the start's (the baseline argmin), so
//     only the depths whose ceiling exceeds it are simulated.
//   - deadlineChoice with a required rate: walkDeadline, and walkMax
//     for its flat-out fallback when no depth clears the rate. With
//     none required it is minDollarChoice.
//
// When the baseline price is not finite and positive (or rate × g
// overflows), σ is not monotone in throughput; a NaN required rate
// admits every candidate. Every depth is simulated then, and
// presimulated at once, as a sweep's are.
func boundedDollar(in Inputs, g int, obj Objective, ec Econ, cache *costCache) ([]Choice, int, error) {
	s, err := newCandSet(in, g, shrinkLevels, cache)
	if err != nil {
		return nil, 0, err
	}
	ceil := s.ceilings(ec)
	rate := ec.baselineRate()
	required := requiredRate(obj, ec)
	switch {
	case !(rate > 0) || math.IsInf(rate*float64(g), 1) || math.IsNaN(required):
		presimulate(s.plans)
		for i := range s.depths {
			s.simulate(i)
		}
	case required > 0:
		s.walkBaseline(ec, ceil, rate)
		if !s.walkDeadline(ec, ceil, deadlineHeadroom*required) {
			s.walkMax(ec, ceil)
		}
	default:
		s.walkBaseline(ec, ceil, rate)
		cands, _, _ := s.result()
		sortChoices(cands)
		// No start means no simulated depth produces, so walkBaseline's
		// best σ stayed +Inf and it simulated every depth.
		if start, _ := baselineCost(cands, ec); start >= 0 {
			for i := range s.depths {
				if ceil[i] > ec.EffectiveExPerSec(cands[start]) {
					s.simulate(i)
				}
			}
		}
	}
	out, skips, err := s.result()
	sortChoices(out)
	return out, skips, err
}
