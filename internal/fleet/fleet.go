// Package fleet is the multi-job control plane above the §4.6
// manager: an arbiter that owns the spot fleet and leases VMs to N
// concurrent jobs. Each job bids with an objective-derived priority —
// deadline urgency from how far behind schedule it is, $-surplus from
// where the spot price sits against its long-run mean — and the
// arbiter runs the autoscaler-style pool policy *inside* the simulated
// timeline: a probe loop on the shared event queue ticks the driven
// spot.Pool, leases fresh capacity to the highest bidders, and revokes
// from the lowest-bidding jobs in cascades when a job falls below its
// guaranteed floor.
//
// Revocations are delivered through the job's event feed as ordinary
// spot preemptions: at the manager layer an arbiter revocation is
// indistinguishable from the provider reclaiming the VM, so the whole
// §4.6 machinery (checkpoint rollback, morph-or-hold, restart pricing)
// applies unchanged. Capacity a job voluntarily releases returns to
// the arbiter's free list and is re-leased to other jobs — under a
// shared fleet, a released VM is no longer a one-way door.
//
// A single job runs through the same arbiter. With no competitor
// there is no contention, revocation or re-lease, so its timeline and
// stats equal a manager replaying the market's pretraced event stream
// (spot.EventTrace), with one difference in what it is told: the
// arbiter does not deliver market preemptions of VMs the job released
// (TestSingleJobCollapse pins both).
package fleet

import (
	"fmt"

	"repro/internal/autoconfig"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/price"
	"repro/internal/simtime"
	"repro/internal/spot"
)

// Job is one tenant of the shared fleet.
type Job struct {
	// Name labels the job in audits and reports.
	Name string
	// Mgr is the job's §4.6 manager, fully configured (objective,
	// meter, schedules). The arbiter starts its control loop on the
	// shared queue and feeds it leases and revocations.
	Mgr *manager.Manager
	// TargetGPUs is the capacity the job wants; the arbiter leases
	// toward it when the bid order reaches this job.
	TargetGPUs int
	// MinGPUs is the guaranteed floor: when the job's leased capacity
	// falls below it, the arbiter revokes from lower-bidding jobs
	// (that are above their own floors) to restore it. Zero means no
	// guarantee.
	MinGPUs int
	// Priority is the job's base bid; objective-derived urgency is
	// added on top at each tick.
	Priority float64
	// Objective shapes the bid (deadline slack, $-surplus). Usually
	// mirrors Mgr.Opts.Objective.
	Objective autoconfig.Objective
}

// ScriptedPreempt reclaims Count live pool VMs at At — the chaos
// lever: victims are drawn seeded from the pool's live set, and the
// reclaim feeds back into the market (capacity returns to the
// provider), shifting subsequent hazard like a real mass-preemption.
type ScriptedPreempt struct {
	At    simtime.Time
	Count int
}

// ScriptedOutage reclaims every live pool VM in one availability zone
// at At — the correlated mass-preemption lever. Zones must be set on
// Options; VM ids map to zones round-robin (id % Zones).
type ScriptedOutage struct {
	At   simtime.Time
	Zone int
}

// Options tunes a fleet run.
type Options struct {
	// Horizon is the run length.
	Horizon simtime.Duration
	// Probe is the arbiter's tick cadence (default 10 minutes) — the
	// same cadence the pool's market dynamics advance on.
	Probe simtime.Duration
	// Prices is the shared spot price curve, used for $-surplus bids.
	// Nil disables the economic bid component.
	Prices *price.Curve
	// Preempts is the scripted reclaim schedule, in any order.
	Preempts []ScriptedPreempt
	// Zones spreads the pool's VMs round-robin over availability zones
	// (vm id % Zones); 0 keeps the pool flat. Required for Outages.
	Zones int
	// Outages is the scripted zone-outage schedule, in any order: each
	// entry reclaims every live VM in its zone at its instant.
	Outages []ScriptedOutage
	// VictimSeed seeds the scripted reclaims' victim draws.
	VictimSeed int64
	// Obs is what the run records into. Its tracer receives market
	// grants/reclaims, arbiter ticks, leases and revocation cascades on
	// the "market" and "arbiter" tracks; its registry the wall-clock
	// arbiter-tick histogram ("wall.arbiter.tick_us"). Every job's
	// manager records into the same hooks on its own "job:<name>"
	// track, with its series under "<name>/", so a revocation's span
	// parents the victim's preemption handling. Track and Prefix are
	// not used. The zero value changes nothing: the run is
	// bit-identical to an unobserved one.
	Obs obs.Scope
}

// JobResult is one job's view of a fleet run.
type JobResult struct {
	Name string
	// Points and Stats are the job's manager timeline, exactly as a
	// direct RunTimeline would report them.
	Points []manager.TimelinePoint
	Stats  manager.Stats
	// Events are the fleet events delivered to this job: leases as
	// allocations, market preemptions and arbiter revocations as
	// preemptions.
	Events []spot.Event
}

// Result is a completed fleet run.
type Result struct {
	Jobs []JobResult
	// Audit is the run's invariant ledger: lease bookkeeping,
	// revocation cascades, violations.
	Audit *Audit
}

// Run arbitrates the market across the given jobs until the horizon.
// Job order is the deterministic tie-break for equal bids.
func Run(mk *spot.Market, jobs []*Job, opts Options) (*Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("fleet: no jobs")
	}
	if opts.Probe <= 0 {
		opts.Probe = 10 * simtime.Minute
	}
	if opts.Horizon <= 0 {
		return nil, fmt.Errorf("fleet: Options.Horizon must be positive")
	}
	names := map[string]bool{}
	for i, j := range jobs {
		if j.Name == "" {
			return nil, fmt.Errorf("fleet: job %d has no name", i)
		}
		if names[j.Name] {
			return nil, fmt.Errorf("fleet: duplicate job name %q", j.Name)
		}
		names[j.Name] = true
		if j.TargetGPUs <= 0 {
			return nil, fmt.Errorf("fleet: job %q needs TargetGPUs > 0", j.Name)
		}
		if j.MinGPUs < 0 || j.MinGPUs > j.TargetGPUs {
			return nil, fmt.Errorf("fleet: job %q MinGPUs %d outside [0, %d]", j.Name, j.MinGPUs, j.TargetGPUs)
		}
	}

	if opts.Zones < 0 || opts.Zones == 1 {
		return nil, fmt.Errorf("fleet: Options.Zones must be 0 (flat) or >= 2, got %d", opts.Zones)
	}
	for _, o := range opts.Outages {
		if opts.Zones < 2 {
			return nil, fmt.Errorf("fleet: Options.Outages needs Options.Zones >= 2")
		}
		if o.Zone < 0 || o.Zone >= opts.Zones {
			return nil, fmt.Errorf("fleet: outage zone %d outside [0, %d)", o.Zone, opts.Zones)
		}
	}
	return newArbiter(mk, jobs, opts).run()
}
