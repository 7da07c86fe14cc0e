// Package price models the dollar side of spot training. Varuna's
// pitch is *low-cost* training on preemptible VMs, but throughput
// alone does not decide cost: spot prices move with the same
// datacenter load cycle that drives availability, so the economic
// value of a GPU-hour changes while a job runs. This package supplies
// the three pieces the decision stack needs to reason in dollars:
//
//   - Curve: the per-VM-kind spot price as a step function over
//     simulated time (constant, traced, or stochastic mean-reverting;
//     deterministic under seed),
//   - Meter: integration of fleet-size × price over a manager
//     timeline into dollars, attributed to compute, reconfiguration
//     downtime and idle-capacity buckets,
//   - ChooseMarket: an expected-$-per-example comparison across VM
//     kinds (cheap-but-volatile vs pricier-but-stable), fed by the
//     per-kind hazards the spot.GapEstimator observes.
//
// Everything here is a pure deterministic function of its inputs, so
// decisions built on top stay memoizable and timelines stay
// bit-reproducible.
package price

import (
	"fmt"
	"sort"

	"repro/internal/simtime"
)

// Step is one breakpoint of a price curve: from At (inclusive) the
// price is PerGPUHour dollars per GPU-hour, until the next step.
type Step struct {
	At         simtime.Time `json:"at"`
	PerGPUHour float64      `json:"per_gpu_hour"`
}

// Curve is a right-continuous step function of spot price over
// simulated time, in dollars per GPU-hour. The zero curve (no steps)
// prices everything at zero.
type Curve struct {
	steps []Step
}

// Constant builds a flat curve at the given dollars per GPU-hour.
func Constant(perGPUHour float64) *Curve {
	return &Curve{steps: []Step{{At: 0, PerGPUHour: perGPUHour}}}
}

// FromSteps builds a curve from an explicit price trace (e.g. a
// recorded spot price history). Steps must be in strictly increasing
// time order with non-negative prices; before the first step the first
// step's price applies.
func FromSteps(steps []Step) (*Curve, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("price: empty trace")
	}
	for i, s := range steps {
		if s.PerGPUHour < 0 {
			return nil, fmt.Errorf("price: negative price %v at step %d", s.PerGPUHour, i)
		}
		if i > 0 && s.At <= steps[i-1].At {
			return nil, fmt.Errorf("price: steps must be strictly increasing in time (step %d)", i)
		}
	}
	return &Curve{steps: append([]Step(nil), steps...)}, nil
}

// MROptions parameterizes a mean-reverting (discretized
// Ornstein–Uhlenbeck) price process — the standard shape of spot price
// series: excursions away from a long-run mean that decay back, with
// occasional spikes when capacity tightens.
type MROptions struct {
	// Mean is the long-run price in dollars per GPU-hour.
	Mean float64
	// Vol is the per-step shock scale as a fraction of Mean
	// (e.g. 0.15 = 15% of the mean per step).
	Vol float64
	// Reversion is the per-step pull back toward Mean (0 < r <= 1;
	// higher reverts faster).
	Reversion float64
	// Floor clamps the price from below (defaults to Mean/4 when 0:
	// spot prices never reach zero — the provider sets a reserve).
	Floor float64
	// Step is the repricing interval (defaults to 10 minutes).
	Step simtime.Duration
	// Horizon is how far the generated curve extends; past it the last
	// price holds.
	Horizon simtime.Duration
}

// MeanReverting generates a stochastic mean-reverting price curve,
// deterministic under seed: the same (opts, seed) pair always yields
// the same steps.
func MeanReverting(opts MROptions, seed int64) (*Curve, error) {
	if opts.Mean <= 0 {
		return nil, fmt.Errorf("price: mean-reverting curve needs Mean > 0")
	}
	if opts.Reversion <= 0 || opts.Reversion > 1 {
		return nil, fmt.Errorf("price: Reversion must be in (0, 1]")
	}
	if opts.Horizon <= 0 {
		return nil, fmt.Errorf("price: mean-reverting curve needs a Horizon")
	}
	step := opts.Step
	if step <= 0 {
		step = 10 * simtime.Minute
	}
	floor := opts.Floor
	if floor <= 0 {
		floor = opts.Mean / 4
	}
	rng := simtime.NewRand(seed)
	x := opts.Mean
	var steps []Step
	for t := simtime.Time(0); t <= simtime.Time(opts.Horizon); t = t.Add(step) {
		steps = append(steps, Step{At: t, PerGPUHour: x})
		x += opts.Reversion*(opts.Mean-x) + opts.Vol*opts.Mean*rng.NormFloat64()
		if x < floor {
			x = floor
		}
	}
	return &Curve{steps: steps}, nil
}

// At reports the price in dollars per GPU-hour at instant t.
func (c *Curve) At(t simtime.Time) float64 {
	if c == nil || len(c.steps) == 0 {
		return 0
	}
	// First step at or after t+1: the active step is the one before.
	i := sort.Search(len(c.steps), func(i int) bool { return c.steps[i].At > t })
	if i == 0 {
		return c.steps[0].PerGPUHour
	}
	return c.steps[i-1].PerGPUHour
}

// Integrate reports ∫ price dt over [from, to] for one GPU, in
// dollars (i.e. dollars per GPU-hour × hours). Stepwise-exact and
// O(log steps + overlap): only the steps overlapping the window are
// visited, in time order, so long traced curves (a real price
// history at minute resolution) stay cheap to meter thousands of
// times per timeline.
func (c *Curve) Integrate(from, to simtime.Time) float64 {
	if c == nil || len(c.steps) == 0 || to <= from {
		return 0
	}
	// First step that could overlap: the one active at from (the
	// first step's price extends backward before its At).
	i := sort.Search(len(c.steps), func(i int) bool { return c.steps[i].At > from })
	if i > 0 {
		i--
	}
	var dollars float64
	for ; i < len(c.steps) && c.steps[i].At < to; i++ {
		start := simtime.Max(c.steps[i].At, from)
		if i == 0 {
			start = from // first step's price extends backward
		}
		end := simtime.Time(1<<63 - 1)
		if i+1 < len(c.steps) {
			end = c.steps[i+1].At
		}
		b := simtime.Min(end, to)
		if b > start {
			dollars += c.steps[i].PerGPUHour * b.Sub(start).Seconds() / 3600
		}
	}
	return dollars
}

// Scaled returns a copy of the curve with every price in [from, to)
// multiplied by factor — a capacity-crunch price shock (factor > 1) or
// a promotional dip (factor < 1), layered over whatever shape the base
// curve has. Breakpoints are inserted at the window edges so the base
// curve is untouched outside it. Scaling the zero curve returns nil.
func (c *Curve) Scaled(from, to simtime.Time, factor float64) (*Curve, error) {
	if factor < 0 {
		return nil, fmt.Errorf("price: negative shock factor %v", factor)
	}
	if to <= from {
		return nil, fmt.Errorf("price: shock window [%v, %v) is empty", from, to)
	}
	if c == nil || len(c.steps) == 0 {
		return nil, nil
	}
	var steps []Step
	push := func(at simtime.Time, p float64) {
		if n := len(steps); n > 0 {
			if steps[n-1].At == at {
				steps[n-1].PerGPUHour = p
				return
			}
			if steps[n-1].PerGPUHour == p {
				return
			}
		}
		steps = append(steps, Step{At: at, PerGPUHour: p})
	}
	// The first step's price extends backward, so a window starting
	// before it shocks that backward extension too.
	if from < c.steps[0].At {
		push(from, c.steps[0].PerGPUHour*factor)
		if to < c.steps[0].At {
			push(to, c.steps[0].PerGPUHour)
		}
	}
	for i, s := range c.steps {
		end := simtime.Time(1<<63 - 1)
		if i+1 < len(c.steps) {
			end = c.steps[i+1].At
		}
		at := s.At
		if at < from && end > from {
			push(at, s.PerGPUHour)
			at = from
		}
		in := at >= from && at < to
		p := s.PerGPUHour
		if in {
			p *= factor
		}
		push(at, p)
		if in && end > to {
			push(to, s.PerGPUHour)
		}
	}
	return &Curve{steps: steps}, nil
}

// Mean reports the time-weighted average price over [from, to] in
// dollars per GPU-hour.
func (c *Curve) Mean(from, to simtime.Time) float64 {
	if to <= from {
		return c.At(from)
	}
	return c.Integrate(from, to) / (to.Sub(from).Seconds() / 3600)
}
