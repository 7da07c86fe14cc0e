// Package spot simulates the low-priority VM market the paper trains
// on: VM allocations that succeed or fail depending on spare capacity,
// and running VMs that are preempted when the provider reclaims them.
// It generates the availability dynamics behind Figure 3 (1-GPU VMs are
// more readily available than 4-GPU VMs) and the 60-hour trace behind
// Figure 8.
//
// The market is a birth–death process over a hidden spare-capacity pool
// that drifts on a multi-hour cycle (datacenter load varies by time of
// day). Multi-GPU VMs require contiguous capacity, so their allocation
// success probability falls much faster as the pool tightens — the
// observed mechanism for Observation 4.
package spot

import (
	"fmt"
	"math"

	"repro/internal/price"
	"repro/internal/simtime"
)

// Market models spot capacity for one VM size in one region.
type Market struct {
	// GPUsPerVM is the VM size (1 or 4 in the paper).
	GPUsPerVM int
	// BaseCapacity is the average number of spare GPUs.
	BaseCapacity int
	// CycleAmplitude is the fraction of BaseCapacity that the
	// spare pool swings over a load cycle.
	CycleAmplitude float64
	// CyclePeriod is the load-cycle length (default 8h).
	CyclePeriod simtime.Duration
	// MeanHold is the average time a granted VM survives before
	// preemption pressure applies (preemptions are more likely when
	// the pool is tight).
	MeanHold simtime.Duration
	// Prices is the market's spot price curve in dollars per
	// GPU-hour. Nil means unpriced — availability dynamics only, the
	// pre-dollar behavior. core.Job.RunOnSpotMarketOpts forwards a
	// market's curve into the manager's cost accounting when the
	// caller didn't supply one explicitly.
	Prices *price.Curve

	rng  *simtime.Rand
	held int // GPUs currently granted to us
}

// NewMarket builds a market with the given spare pool and seed.
func NewMarket(gpusPerVM, baseCapacity int, seed int64) *Market {
	return &Market{
		GPUsPerVM:      gpusPerVM,
		BaseCapacity:   baseCapacity,
		CycleAmplitude: 0.6,
		CyclePeriod:    8 * simtime.Hour,
		MeanHold:       4 * simtime.Hour,
		rng:            simtime.NewRand(seed),
	}
}

// spareAt reports the (fractional) spare GPU pool at time t, excluding
// what we already hold.
func (mk *Market) spareAt(t simtime.Time) float64 {
	phase := 2 * math.Pi * float64(t) / float64(mk.CyclePeriod)
	spare := float64(mk.BaseCapacity) * (1 + mk.CycleAmplitude*math.Sin(phase))
	return spare - float64(mk.held)
}

// TryAllocate attempts to allocate one VM at time t. Multi-GPU VMs need
// contiguous free capacity: the success probability is the single-GPU
// probability raised to the VM size, matching the empirically much
// poorer availability of 4-GPU VMs (Figure 3).
func (mk *Market) TryAllocate(t simtime.Time) bool {
	spare := mk.spareAt(t)
	if spare < float64(mk.GPUsPerVM) {
		return false
	}
	// Probability a single GPU slot is free, saturating with slack;
	// a k-GPU VM needs k contiguous slots on one host, so its success
	// probability decays geometrically in the VM size.
	pOne := 1 - math.Exp(-spare/float64(mk.BaseCapacity))
	p := math.Pow(pOne, float64(mk.GPUsPerVM))
	if mk.rng.Float64() >= p {
		return false
	}
	mk.held += mk.GPUsPerVM
	return true
}

// Release returns one VM to the pool (voluntary teardown).
func (mk *Market) Release() {
	if mk.held >= mk.GPUsPerVM {
		mk.held -= mk.GPUsPerVM
	}
}

// PreemptionHazard reports the per-hour probability that a given held
// VM is preempted at time t: baseline churn plus capacity pressure when
// the pool is tight.
func (mk *Market) PreemptionHazard(t simtime.Time) float64 {
	base := float64(simtime.Hour) / float64(mk.MeanHold)
	spare := mk.spareAt(t)
	if spare < 0 {
		spare = 0
	}
	pressure := math.Exp(-spare / (0.3 * float64(mk.BaseCapacity)))
	// Larger VMs are reclaimed preferentially: evicting one frees a
	// whole contiguous block for a dedicated customer.
	size := 1 + 0.25*float64(mk.GPUsPerVM-1)
	return base * (0.3 + 2.7*pressure) * size
}

// Held reports the GPUs currently allocated from this market.
func (mk *Market) Held() int { return mk.held }

// ExpectedNextEvent reports the analytic expected time until the next
// fleet event for a job holding vms VMs at time t: the superposition
// of the per-VM preemption hazards. It is the market's own estimate of
// the stable-window length a reconfiguration's cost must amortize over
// — the horizon the morph-or-hold decision discounts throughput gains
// by. Allocation arrivals shorten real windows further, so this is an
// optimistic (upper) bound; the manager's empirical GapEstimator
// tracks the realized gaps instead.
func (mk *Market) ExpectedNextEvent(t simtime.Time, vms int) simtime.Duration {
	if vms < 1 {
		vms = 1
	}
	perHour := mk.PreemptionHazard(t) * float64(vms)
	if perHour <= 0 {
		return mk.MeanHold
	}
	return simtime.Duration(float64(simtime.Hour) / perHour)
}

// GapEstimator tracks the observed inter-arrival gaps of fleet events
// (allocations and preemptions, batched per instant) as an EWMA. The
// §4.6 manager feeds it every fleet change it applies and reads back
// the expected time to the next one — the spot-derived horizon of each
// morph-or-hold decision. Deterministic: the estimate is a pure
// function of the observed event times.
//
// Beyond the kind-agnostic overall gap, ObserveKind maintains one EWMA
// hazard per event kind. Allocations and preemptions have very
// different dynamics on a spot market — allocations trickle in as the
// probe loop fills toward the target, while preemptions cluster when
// the provider reclaims capacity (the bursty reclaim behind Figure 8's
// worst segments) — so a single pooled gap both overstates the window
// after a preemption and understates it after an allocation. NextKind
// projects which kind arrives next from the per-kind tracks; the
// manager passes that forecast into the morph-or-hold decision, which
// holds more aggressively when the next expected event is another
// preemption.
type GapEstimator struct {
	// Alpha is the EWMA weight of the newest gap (0 < Alpha <= 1).
	Alpha float64
	// Prior seeds the estimate before two events have been seen.
	Prior simtime.Duration

	last    simtime.Time
	haveOne bool
	mean    float64
	n       int

	kinds [2]kindTrack
}

// kindTrack is the per-kind EWMA: gaps between successive events of
// one kind.
type kindTrack struct {
	last    simtime.Time
	haveOne bool
	mean    float64
	n       int
}

// NewGapEstimator builds an estimator with the given prior and the
// default smoothing (alpha 0.25: responsive to load-cycle swings,
// stable against one-off bursts).
func NewGapEstimator(prior simtime.Duration) *GapEstimator {
	return &GapEstimator{Alpha: 0.25, Prior: prior}
}

// Observe records that a fleet event (or a batch of simultaneous
// events) happened at t. Repeated observations at the same instant
// collapse into one.
func (e *GapEstimator) Observe(t simtime.Time) {
	if e.haveOne && t == e.last {
		return
	}
	if e.haveOne {
		gap := float64(t.Sub(e.last))
		if e.n == 0 {
			e.mean = gap
		} else {
			e.mean += e.Alpha * (gap - e.mean)
		}
		e.n++
	}
	e.last = t
	e.haveOne = true
}

// ObserveKind records a fleet event of a known kind at t: the overall
// gap track updates exactly as Observe does, and the event additionally
// feeds the per-kind EWMA (gaps between successive events of the same
// kind, batched per instant like the overall track).
func (e *GapEstimator) ObserveKind(t simtime.Time, kind EventKind) {
	e.Observe(t)
	k := &e.kinds[kind]
	if k.haveOne && t == k.last {
		return
	}
	if k.haveOne {
		gap := float64(t.Sub(k.last))
		if k.n == 0 {
			k.mean = gap
		} else {
			k.mean += e.Alpha * (gap - k.mean)
		}
		k.n++
	}
	k.last = t
	k.haveOne = true
}

// Expected reports the estimated time to the next fleet event: the
// EWMA of observed gaps, or the prior before any gap has been seen.
func (e *GapEstimator) Expected() simtime.Duration {
	if e.n == 0 {
		return e.Prior
	}
	return simtime.Duration(e.mean + 0.5)
}

// ExpectedOf reports the estimated gap between successive events of
// one kind — the inverse of that kind's EWMA hazard — or the prior
// before two events of the kind have been seen.
func (e *GapEstimator) ExpectedOf(kind EventKind) simtime.Duration {
	k := &e.kinds[kind]
	if k.n == 0 {
		return e.Prior
	}
	return simtime.Duration(k.mean + 0.5)
}

// NextKind projects which kind of fleet event arrives next: each
// kind's next arrival is extrapolated as its last occurrence plus its
// EWMA gap, and the earlier projection wins (ties go to Preempt, the
// conservative answer). It reports ok == false until at least one kind
// has an observed gap to project from.
func (e *GapEstimator) NextKind() (kind EventKind, ok bool) {
	best := simtime.Time(0)
	for i := range e.kinds {
		k := &e.kinds[i]
		if k.n == 0 {
			continue
		}
		at := k.last.Add(simtime.Duration(k.mean + 0.5))
		if !ok || at < best || (at == best && EventKind(i) == Preempt) {
			best, kind, ok = at, EventKind(i), true
		}
	}
	return kind, ok
}

// Observations reports how many gaps the estimate is built on.
func (e *GapEstimator) Observations() int { return e.n }

// KindObservations reports how many same-kind gaps back ExpectedOf for
// the given kind.
func (e *GapEstimator) KindObservations(kind EventKind) int { return e.kinds[kind].n }

// KindFor bridges this market's observed economics into a price.Kind
// for ChooseMarket: the market's price curve plus the preemption gap
// the estimator measured from a real event stream (falling back to
// the market's analytic hazard at time 0 before any preemption gap
// has been observed). exPerSec is the job's steady-state throughput
// on a gpus-GPU fleet of this kind and restartCost the expected
// downtime-plus-rollback paid per preemption (restart.Model pricing).
func (mk *Market) KindFor(name string, gpus int, exPerSec float64, gaps *GapEstimator, restartCost simtime.Duration) price.Kind {
	vms := (gpus + mk.GPUsPerVM - 1) / mk.GPUsPerVM
	preemptEvery := mk.ExpectedNextEvent(0, vms)
	if gaps != nil && gaps.KindObservations(Preempt) > 0 {
		preemptEvery = gaps.ExpectedOf(Preempt)
	}
	return price.Kind{
		Name:         name,
		Curve:        mk.Prices,
		GPUs:         gpus,
		ExPerSec:     exPerSec,
		PreemptEvery: preemptEvery,
		RestartCost:  restartCost,
	}
}

// Sample is one point of an availability trace.
type Sample struct {
	At   simtime.Time
	GPUs int
}

// probeLoop drives a market probe cadence through the simulated event
// queue, keeping the market on the same clock machinery as the rest
// of the system: body runs once per probe interval from time 0
// through horizon inclusive. The tick callback is registered once and
// rescheduled by handle, so a multi-day trace generates no per-tick
// closures.
type probeLoop struct {
	hz     simtime.Time
	probe  simtime.Duration
	q      simtime.EventQueue
	onTick simtime.Handle
	body   func(t simtime.Time)
}

func runProbeLoop(horizon, probe simtime.Duration, body func(t simtime.Time)) {
	l := &probeLoop{hz: simtime.Time(horizon), probe: probe, body: body}
	l.onTick = l.q.Register(l.tick)
	l.q.ScheduleCall(0, l.onTick, 0, 0)
	l.q.Run(0)
}

func (l *probeLoop) tick(int32, int32) {
	t := l.q.Now()
	l.body(t)
	if next := t.Add(l.probe); next <= l.hz {
		l.q.ScheduleCall(next, l.onTick, 0, 0)
	}
}

// AvailabilityTrace reproduces the Figure 3 experiment: request and
// release VMs alternately at the given probe interval for the given
// duration, recording aggregate GPUs held. The probe loop continually
// tries to grow toward target GPUs and random preemptions shrink it.
func AvailabilityTrace(mk *Market, target int, horizon simtime.Duration, probe simtime.Duration) []Trace {
	var out []Trace
	runProbeLoop(horizon, probe, func(t simtime.Time) {
		// Preempt each held VM independently.
		haz := mk.PreemptionHazard(t) * probe.Seconds() / 3600
		vms := mk.held / mk.GPUsPerVM
		for v := 0; v < vms; v++ {
			if mk.rng.Float64() < haz {
				mk.Release()
			}
		}
		// Grow toward the target, a few attempts per probe.
		for i := 0; i < 8 && mk.held < target; i++ {
			if !mk.TryAllocate(t) {
				break
			}
		}
		out = append(out, Trace{At: t, GPUs: mk.held})
	})
	return out
}

// Trace is one point of an availability trace.
type Trace struct {
	At   simtime.Time
	GPUs int
}

// EventKind labels a fleet change.
type EventKind int

// Fleet change kinds.
const (
	Alloc EventKind = iota
	Preempt
)

// String names the event kind.
func (k EventKind) String() string {
	if k == Alloc {
		return "alloc"
	}
	return "preempt"
}

// Event is one allocation or preemption affecting a named VM.
type Event struct {
	At   simtime.Time
	Kind EventKind
	// VM is the market-assigned VM identifier.
	VM int
	// GPUs is the VM's GPU count.
	GPUs int
	// Cause carries the obs.SpanID of the span that produced this
	// event (a market reclaim, an arbiter lease or revocation), so the
	// consumer's own spans can parent to it and the exported trace
	// connects market tick → arbiter cascade → manager preemption
	// causally. Zero (untraced) everywhere tracing is off; the field
	// is deliberately a plain int64 so spot does not depend on obs.
	Cause int64
}

// String formats the event.
func (e Event) String() string {
	return fmt.Sprintf("%v %s vm%d(%dgpu)", e.At, e.Kind, e.VM, e.GPUs)
}

// EventTrace generates a full allocation/preemption event stream for a
// job that keeps trying to hold target GPUs over the horizon — the
// input the Varuna manager consumes (Figure 8's 60-hour run). It is a
// Pool driven through every probe tick up front: the pregenerated
// trace and the tick-by-tick arbiter path consume the market's random
// stream identically.
func EventTrace(mk *Market, target int, horizon simtime.Duration, probe simtime.Duration) []Event {
	var out []Event
	p := NewPool(mk, target)
	runProbeLoop(horizon, probe, func(t simtime.Time) {
		out = append(out, p.Tick(t, probe)...)
	})
	return out
}
