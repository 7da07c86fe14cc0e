package spot

import "repro/internal/simtime"

// Pool is the driven form of the spot market: instead of pregenerating
// a whole event trace up front (EventTrace), a Pool advances one probe
// tick at a time and reports the allocations and preemptions that tick
// produced. This is what lets a control plane sit *inside* the
// simulated timeline — the fleet arbiter ticks the pool at its probe
// cadence on the shared event queue, reacts to what the market did,
// and can return reclaimed or released capacity to circulation instead
// of treating every release as a one-way door.
//
// The per-tick discipline is exactly EventTrace's: every ever-granted
// VM draws against the preemption hazard in allocation order, then up
// to eight allocation attempts run while the pool holds fewer GPUs
// than its target. A Pool driven tick-by-tick therefore consumes the
// market's random stream identically to EventTrace — the property the
// single-job parity goldens pin.
type Pool struct {
	mk     *Market
	target int

	nextVM int
	live   map[int]bool
	order  []int
}

// NewPool wraps a market into a driven pool that grows toward target
// GPUs. The pool assumes it is the market's only client: it owns the
// market's held count and random stream.
func NewPool(mk *Market, target int) *Pool {
	return &Pool{mk: mk, target: target, live: make(map[int]bool)}
}

// Market exposes the underlying market (price curve, hazard model).
func (p *Pool) Market() *Market { return p.mk }

// LiveIDs lists the currently-held VM ids in allocation order — the
// deterministic iteration order scripted reclaims pick victims from.
func (p *Pool) LiveIDs() []int {
	ids := make([]int, 0, len(p.order))
	for _, id := range p.order {
		if p.live[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// Tick advances the pool by one probe interval ending at t: held VMs
// draw against the preemption hazard in allocation order, then the
// pool attempts to grow toward its target. It returns the fleet events
// the tick produced, in market order (preemptions before allocations).
func (p *Pool) Tick(t simtime.Time, probe simtime.Duration) []Event {
	var out []Event
	haz := p.mk.PreemptionHazard(t) * probe.Seconds() / 3600
	for i := 0; i < len(p.order); i++ {
		id := p.order[i]
		if !p.live[id] {
			continue
		}
		if p.mk.rng.Float64() < haz {
			p.mk.Release()
			p.live[id] = false
			out = append(out, Event{At: t, Kind: Preempt, VM: id, GPUs: p.mk.GPUsPerVM})
		}
	}
	for i := 0; i < 8 && p.mk.held < p.target; i++ {
		if !p.mk.TryAllocate(t) {
			break
		}
		id := p.nextVM
		p.nextVM++
		p.live[id] = true
		p.order = append(p.order, id)
		out = append(out, Event{At: t, Kind: Alloc, VM: id, GPUs: p.mk.GPUsPerVM})
	}
	return out
}

// Kill reclaims one named VM out of band (a scripted mass-preemption,
// an operator action): the VM leaves the live set and its capacity
// returns to the market, shifting subsequent hazard and allocation
// odds — the pool is driven, so injected events feed back into the
// market instead of being spliced into a pregenerated trace. It
// reports whether the VM was live.
func (p *Pool) Kill(vm int) bool {
	if !p.live[vm] {
		return false
	}
	p.live[vm] = false
	p.mk.Release()
	return true
}
