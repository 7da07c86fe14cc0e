package autoconfig

import (
	"repro/internal/restart"
	"repro/internal/simtime"
)

// Horizon is the spot-derived forecast a morph-or-hold decision
// discounts throughput gains over: how long until the next fleet
// event, and whether that event is expected to be another preemption
// (spot.GapEstimator.NextKind). The kind matters because a predicted
// preemption ends the stable window with a forced restart that
// re-prices everything anyway — and preemptions cluster when the
// provider reclaims capacity, so the pooled EWMA gap overstates the
// window a voluntary morph's gain can amortize over.
type Horizon struct {
	// Until is the expected time to the next fleet event.
	Until simtime.Duration
	// PreemptNext marks the next expected event as a preemption.
	PreemptNext bool
	// HoldDiscount is the fraction of the post-downtime gain window a
	// PreemptNext decision still credits, calibrated from the per-kind
	// hazard ratio: gap_preempt / (gap_preempt + gap_alloc), i.e. the
	// probability that the next fleet event is an allocation rather
	// than the forecast preemption. When preemptions dominate the
	// event stream (a reclaim burst) the window is discounted harder
	// than the symmetric case; when the tracks are balanced it equals
	// the legacy fixed ½. Zero means "uncalibrated" and falls back to
	// that fixed ½ — the prior before both kind tracks have observed
	// gaps.
	HoldDiscount float64
}

// discounted applies the preempt-next discount to a usable gain
// window: the calibrated per-kind hazard ratio when available, the
// legacy fixed ½ otherwise.
func (hz Horizon) discounted(usable simtime.Duration) simtime.Duration {
	if !hz.PreemptNext {
		return usable
	}
	if hz.HoldDiscount > 0 {
		return simtime.Duration(float64(usable) * hz.HoldDiscount)
	}
	return usable / 2
}

// MorphDecision is the outcome of a cost-aware BestOrHold evaluation:
// either reconfigure to Choice and pay Costs of downtime, or hold the
// current configuration because the morph would not pay for itself
// before the fleet likely changes again.
type MorphDecision struct {
	// Morph reports whether reconfiguring beats holding.
	Morph bool
	// Choice is the objective's target configuration for the new fleet
	// (the would-be target even when holding).
	Choice Choice
	// Costs is the modeled downtime of moving to Choice.
	Costs restart.Costs
	// GainPerSec is the steady-state throughput delta of Choice over
	// the held configuration (examples/s; <= 0 always holds under max
	// throughput).
	GainPerSec float64
}

// BestOrHold is the cost-aware variant of BestFor: given the currently
// running configuration, a reconfiguration-cost model and the expected
// time until the next fleet event (spot-derived), it decides whether
// morphing to BestFor's choice for g GPUs under obj and ec pays for
// itself before the fleet likely changes again. A job that is not
// running, or whose current shape no longer fits the fleet, always
// morphs; a job already running the chosen shape holds. Otherwise
// each objective applies its own trade: examples for max throughput
// (tradeExamples), dollar surplus for the dollar objectives
// (tradeDollars). The underlying decision is memoized or bounded as
// BestFor's is, so the added work is arithmetic, not simulation.
func (pl *Planner) BestOrHold(g int, cur Choice, running bool, rm *restart.Model, hz Horizon, dirty bool, obj Objective, ec Econ) (MorphDecision, error) {
	best, baseline, err := pl.bestForEcon(g, obj, ec)
	if err != nil {
		return MorphDecision{}, err
	}
	dec := MorphDecision{Choice: best}
	if !running || rm == nil {
		dec.Morph = true
		if rm != nil {
			dec.Costs = rm.Price(restart.Assignment{}, assignmentOf(best), false)
		}
		return dec, nil
	}
	dec.Costs = rm.Price(assignmentOf(cur), assignmentOf(best), dirty)
	dec.GainPerSec = best.TotalExPerSec() - cur.TotalExPerSec()
	switch {
	case cur.GPUsUsed > g:
		// The running shape no longer fits the fleet: forced morph.
		dec.Morph = true
	case best.P == cur.P && best.D == cur.D:
		// Same shape: nothing to gain from a voluntary restart.
	case obj.Kind == ObjMaxThroughput:
		dec.tradeExamples(cur, hz)
	default:
		dec.tradeDollars(cur, hz, obj, ec, baseline)
	}
	return dec, nil
}

// tradeExamples is max throughput's morph-or-hold rule. Morphing
// forfeits cur's throughput for the modeled downtime, then earns the
// throughput gain only over whatever remains of the expected stable
// window. Hold when
//
//	gain × max(0, horizon − downtime)  ≤  cur_throughput × downtime
//
// i.e. when modeled downtime exceeds the discounted steady-state gain.
// When the forecast expects the next fleet event to be another
// preemption (hz.PreemptNext), the post-downtime gain window is
// additionally discounted before the comparison — a preemption forces
// a restart that re-prices the configuration anyway, and preemption
// bursts make the EWMA gap an overestimate of the remaining window —
// so marginal morphs hold. The discount is hz.HoldDiscount, the
// calibrated hazard-ratio fraction (falling back to ½ while
// uncalibrated; see Horizon). A gain of zero or less always holds.
func (dec *MorphDecision) tradeExamples(cur Choice, hz Horizon) {
	if dec.GainPerSec <= 0 {
		return
	}
	down := dec.Costs.Total()
	usable := hz.Until - down
	if usable < 0 {
		usable = 0
	}
	usable = hz.discounted(usable)
	earned := dec.GainPerSec * usable.Seconds()
	forfeited := cur.TotalExPerSec() * down.Seconds()
	dec.Morph = earned > forfeited
}

// assignmentOf converts a sweep choice into the restart model's
// costing terms.
func assignmentOf(c Choice) restart.Assignment {
	return restart.Assignment{Stages: c.Stages, D: c.D}
}
