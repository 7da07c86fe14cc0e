package fleet

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/autoconfig"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/spot"
)

// jobState is the arbiter's view of one tenant.
type jobState struct {
	idx  int
	cfg  *Job
	feed *jobFeed
	run  *manager.Run

	leased     map[int]int // vm -> gpus
	leasedGPUs int
	// released marks VMs this job voluntarily returned: they are never
	// leased back to it (its manager already wrote them off and would
	// ignore their preemptions).
	released map[int]bool
}

// freeVM is unleased capacity the arbiter holds: a fresh market grant,
// an acked revocation, or a voluntary release (from records the
// releasing job, which must not get it back). cause is the span that
// freed it — a later lease of this VM parents there, so the trace
// connects grant → lease and revocation → handoff → re-lease.
type freeVM struct {
	vm, gpus int
	from     int // releasing job index, or -1
	cause    obs.SpanID
}

// handoff is a revoked VM in flight: it joins the free list only once
// the victim's control loop has observed the revocation (its feed
// clock passed the revocation instant), so a VM is never leased to two
// jobs at once even across the victim's processing lag.
type handoff struct {
	vm, gpus int
	at       simtime.Time
	victim   int
	cause    obs.SpanID // the revocation span, carried to the re-lease
}

// arbiter co-simulates N manager control loops and the pool probe loop
// on one event queue. All state transitions are deterministic: ticks
// fire before same-instant job steps (the tick for T+probe is always
// scheduled before any job can schedule a T+probe wake, and equal-time
// events fire in insertion order), bids break ties by job order, and
// the only randomness is the market's own seeded stream plus the
// seeded victim draws of scripted reclaims.
type arbiter struct {
	q      *simtime.EventQueue
	pool   *spot.Pool
	probe  simtime.Duration
	hz     simtime.Time
	opts   Options
	onTick simtime.Handle

	jobs    []*jobState
	free    []freeVM
	pending []handoff

	scripted  []ScriptedPreempt
	scrIdx    int
	outages   []ScriptedOutage
	outIdx    int
	victimRng *simtime.Rand

	// nextTick is the next scheduled probe instant; hasNext is false
	// after the final tick (feeds stop waking their jobs).
	nextTick simtime.Time
	hasNext  bool

	meanRate float64
	audit    *Audit

	// tr/met mirror Options.Obs (nil-safe). trkMkt/trkArb
	// are the market and arbiter control tracks; curTick is the span
	// of the probe currently executing — the parent every market
	// event, lease and cascade of that probe hangs off.
	tr      *obs.Tracer
	met     *obs.Metrics
	trkMkt  obs.TrackID
	trkArb  obs.TrackID
	curTick obs.SpanID
}

func newArbiter(mk *spot.Market, jobs []*Job, opts Options) *arbiter {
	target := 0
	for _, j := range jobs {
		target += j.TargetGPUs
	}
	a := &arbiter{
		pool:      spot.NewPool(mk, target),
		probe:     opts.Probe,
		hz:        simtime.Time(opts.Horizon),
		opts:      opts,
		victimRng: simtime.NewRand(opts.VictimSeed),
		audit:     newAudit(len(jobs)),
	}
	a.scripted = append(a.scripted, opts.Preempts...)
	sort.SliceStable(a.scripted, func(i, j int) bool { return a.scripted[i].At < a.scripted[j].At })
	a.outages = append(a.outages, opts.Outages...)
	sort.SliceStable(a.outages, func(i, j int) bool { return a.outages[i].At < a.outages[j].At })
	if opts.Prices != nil {
		a.meanRate = opts.Prices.Mean(0, a.hz)
	}
	a.tr, a.met = opts.Obs.Trace, opts.Obs.Metrics
	if a.tr.Enabled() {
		// Control tracks first, then one track per job in job order —
		// the stable export layout.
		a.trkMkt = a.tr.Track("market")
		a.trkArb = a.tr.Track("arbiter")
	}
	for i, j := range jobs {
		o := opts.Obs
		if o.Trace != nil {
			o.Track = o.Trace.Track("job:" + j.Name)
		}
		if o.Series != nil {
			o.Prefix = j.Name + "/"
		}
		j.Mgr.Opts.Obs = o
		a.jobs = append(a.jobs, &jobState{
			idx:      i,
			cfg:      j,
			leased:   make(map[int]int),
			released: make(map[int]bool),
		})
	}
	return a
}

func (a *arbiter) run() (*Result, error) {
	a.q = new(simtime.EventQueue)
	a.onTick = a.q.Register(a.tick)
	// The arbiter's first tick is scheduled before any job's first
	// step: ticks win every same-instant race by insertion order, so
	// leases granted at T are poppable by job steps at T.
	a.nextTick, a.hasNext = 0, true
	a.q.ScheduleCall(0, a.onTick, 0, 0)
	for _, j := range a.jobs {
		j.feed = &jobFeed{arb: a, job: j}
		run, err := j.cfg.Mgr.StartOn(a.q, j.feed, a.opts.Horizon)
		if err != nil {
			return nil, fmt.Errorf("fleet: job %q: %w", j.cfg.Name, err)
		}
		j.run = run
	}
	a.q.Run(0)

	res := &Result{Audit: a.audit}
	for _, j := range a.jobs {
		points, stats := j.run.Finish()
		res.Jobs = append(res.Jobs, JobResult{
			Name:   j.cfg.Name,
			Points: points,
			Stats:  stats,
			Events: j.feed.evs,
		})
	}
	// Anything still in flight at the end is a bookkeeping leak.
	for _, h := range a.pending {
		if h.at <= a.hz.Add(-a.probe) {
			a.audit.violate("handoff of vm%d (revoked t=%v) never acknowledged", h.vm, h.at)
		}
	}
	return res, nil
}

// bid scores a job's claim on contended capacity at instant t: its
// base priority plus objective-derived urgency. Deadline jobs bid up
// as they fall behind schedule (progress fraction trailing the
// elapsed fraction of the deadline window) and stand down once the
// target is met; min-$/example jobs bid the price surplus — capacity
// is worth more to them when the spot price sits below its long-run
// mean; throughput jobs bid their base priority flat.
func (a *arbiter) bid(j *jobState, t simtime.Time) float64 {
	b := j.cfg.Priority
	switch j.cfg.Objective.Kind {
	case autoconfig.ObjDeadline:
		o := j.cfg.Objective
		if o.DeadlineAt <= 0 || o.TargetExamples <= 0 {
			break
		}
		pf := j.run.ExamplesDone() / o.TargetExamples
		if pf >= 1 {
			// Target met: the deadline job no longer outbids anyone.
			b -= 0.5
			break
		}
		df := float64(t) / float64(o.DeadlineAt)
		if df > 1 {
			df = 1
		}
		b += clamp(2*(df-pf), -1, 1) + 0.25*df
	case autoconfig.ObjMinDollarPerExample:
		if a.opts.Prices != nil && a.meanRate > 0 {
			b += 0.5 * clamp((a.meanRate-a.opts.Prices.At(t))/a.meanRate, -1, 1)
		}
	}
	return b
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// bidOrder returns job indices sorted by bid, highest first; equal
// bids keep job order (stable).
func (a *arbiter) bidOrder(t simtime.Time, bids []float64) []int {
	order := make([]int, len(a.jobs))
	for i := range order {
		order[i] = i
		bids[i] = a.bid(a.jobs[i], t)
	}
	sort.SliceStable(order, func(x, y int) bool { return bids[order[x]] > bids[order[y]] })
	return order
}

// tick is one arbiter probe: advance the market, return acked
// handoffs to circulation, lease free capacity by bid order, and run
// revocation cascades for jobs under their floors.
func (a *arbiter) tick(int32, int32) {
	t := a.q.Now()
	var wall time.Time
	if a.met.Enabled() {
		wall = time.Now()
	}
	if a.tr.Enabled() {
		a.curTick = a.tr.Instant(a.trkArb, 0, t, "arbiter", "tick")
	}

	// Scripted zone outages due now empty their zone before anything
	// else: a whole failure domain vanishing is the largest provider
	// event, and each kill feeds capacity back into the market.
	for a.outIdx < len(a.outages) && a.outages[a.outIdx].At <= t {
		o := a.outages[a.outIdx]
		a.outIdx++
		a.zoneOutage(t, o.Zone)
	}

	// Scripted reclaims due now feed back into the market before its
	// own dynamics advance.
	for a.scrIdx < len(a.scripted) && a.scripted[a.scrIdx].At <= t {
		s := a.scripted[a.scrIdx]
		a.scrIdx++
		for i := 0; i < s.Count; i++ {
			a.scriptedKill(t)
		}
	}

	// Market dynamics: fresh grants join the free list, preemptions of
	// leased VMs pass through to the owning job.
	for _, ev := range a.pool.Tick(t, a.probe) {
		a.audit.PoolEvents++
		var cause obs.SpanID
		if a.tr.Enabled() {
			name := "grant"
			if ev.Kind == spot.Preempt {
				name = "reclaim"
			}
			cause = a.tr.Instant(a.trkMkt, a.curTick, t, "market", name)
			a.tr.SetArgs(cause, obs.I64("vm", int64(ev.VM)), obs.I64("gpus", int64(ev.GPUs)))
		}
		switch ev.Kind {
		case spot.Alloc:
			a.free = append(a.free, freeVM{vm: ev.VM, gpus: ev.GPUs, from: -1, cause: cause})
		case spot.Preempt:
			a.poolPreempt(ev, false, cause)
		}
	}

	// Handoffs whose victim has observed the revocation return to the
	// free list (general circulation: the next lease round hands them
	// to the highest bidder under target, usually the job the cascade
	// ran for).
	if len(a.pending) > 0 {
		kept := a.pending[:0]
		for _, h := range a.pending {
			if a.jobs[h.victim].feed.consumed >= h.at {
				a.free = append(a.free, freeVM{vm: h.vm, gpus: h.gpus, from: -1, cause: h.cause})
			} else {
				kept = append(kept, h)
			}
		}
		a.pending = kept
	}

	bids := make([]float64, len(a.jobs))
	order := a.bidOrder(t, bids)
	if a.tr.Enabled() {
		for _, idx := range order {
			a.tr.SetArgs(a.curTick, obs.Arg{Key: "bid:" + a.jobs[idx].cfg.Name, Val: int64(bids[idx] * 1000)})
		}
	}
	a.leaseRound(t, order)
	a.cascades(t, order, bids)

	if next := t.Add(a.probe); next <= a.hz {
		a.nextTick, a.hasNext = next, true
		a.q.ScheduleCall(next, a.onTick, 0, 0)
	} else {
		a.hasNext = false
	}
	if a.met.Enabled() {
		a.met.Observe("wall.arbiter.tick_us", float64(time.Since(wall).Microseconds()))
	}
}

// zoneOutage reclaims every live pool VM in one availability zone —
// the correlated mass-preemption. One "outage" span on the market
// track parents every per-VM reclaim, so the trace walks outage →
// reclaim → (job preemption handling) end to end.
func (a *arbiter) zoneOutage(t simtime.Time, zone int) {
	a.audit.ZoneOutages++
	var ospan obs.SpanID
	if a.tr.Enabled() {
		ospan = a.tr.Instant(a.trkMkt, a.curTick, t, "market", "outage")
		a.tr.SetArgs(ospan, obs.I64("zone", int64(zone)))
	}
	for _, vm := range a.pool.LiveInDomain(a.opts.Zones, zone) {
		a.pool.Kill(vm)
		var cause obs.SpanID
		if a.tr.Enabled() {
			cause = a.tr.Instant(a.trkMkt, ospan, t, "market", "outage-reclaim")
			a.tr.SetArgs(cause, obs.I64("vm", int64(vm)), obs.I64("zone", int64(zone)))
		}
		a.poolPreempt(spot.Event{At: t, Kind: spot.Preempt, VM: vm, GPUs: a.pool.Market().GPUsPerVM}, true, cause)
	}
}

// scriptedKill reclaims one seeded-random live pool VM: leased,
// free or in-flight alike — the provider does not care whose it was.
func (a *arbiter) scriptedKill(t simtime.Time) {
	ids := a.pool.LiveIDs()
	if len(ids) == 0 {
		return
	}
	vm := ids[a.victimRng.Intn(len(ids))]
	a.pool.Kill(vm)
	a.audit.ScriptedKills++
	var cause obs.SpanID
	if a.tr.Enabled() {
		cause = a.tr.Instant(a.trkMkt, a.curTick, t, "market", "scripted-reclaim")
		a.tr.SetArgs(cause, obs.I64("vm", int64(vm)))
	}
	a.poolPreempt(spot.Event{At: t, Kind: spot.Preempt, VM: vm, GPUs: a.pool.Market().GPUsPerVM}, true, cause)
}

// poolPreempt routes a market (or scripted) reclaim of a VM to
// whoever holds it: the owning job sees an ordinary preemption; free
// or in-flight VMs silently leave the books.
func (a *arbiter) poolPreempt(ev spot.Event, scripted bool, cause obs.SpanID) {
	ev.Cause = int64(cause)
	for _, j := range a.jobs {
		if g, ok := j.leased[ev.VM]; ok {
			delete(j.leased, ev.VM)
			j.leasedGPUs -= g
			a.audit.unlease(ev.VM)
			if !scripted {
				a.audit.MarketPreempts++
			}
			j.feed.push(ev)
			return
		}
	}
	for i, f := range a.free {
		if f.vm == ev.VM {
			a.free = append(a.free[:i], a.free[i+1:]...)
			return
		}
	}
	for i, h := range a.pending {
		if h.vm == ev.VM {
			// The victim already saw its revocation preemption; the
			// market reclaiming the VM mid-handoff just cancels the
			// handoff.
			a.pending = append(a.pending[:i], a.pending[i+1:]...)
			return
		}
	}
}

// leaseRound grants free capacity in two passes, both in bid order:
// first every job is brought up to its guaranteed floor, then the
// remainder fills toward targets highest bidder first. The floor pass
// is what keeps a permanently-outbid job alive — its floor cannot be
// restored by cascade (cascades only revoke from strictly lower
// bidders, and the bottom of the order has none), so guaranteed
// capacity must be honoured before anyone's discretionary fill. A job
// never receives a VM it previously released.
func (a *arbiter) leaseRound(t simtime.Time, order []int) {
	for _, idx := range order {
		a.leaseUpTo(t, a.jobs[idx], a.jobs[idx].cfg.MinGPUs)
	}
	for _, idx := range order {
		a.leaseUpTo(t, a.jobs[idx], a.jobs[idx].cfg.TargetGPUs)
	}
}

// leaseUpTo grants free VMs to j until its lease reaches limit GPUs or
// no eligible free VM remains.
func (a *arbiter) leaseUpTo(t simtime.Time, j *jobState, limit int) {
	for j.leasedGPUs < limit {
		picked := -1
		for i, f := range a.free {
			if f.from == j.idx || j.released[f.vm] {
				continue
			}
			picked = i
			break
		}
		if picked < 0 {
			break
		}
		f := a.free[picked]
		a.free = append(a.free[:picked], a.free[picked+1:]...)
		a.leaseTo(t, j, f.vm, f.gpus, f.cause)
	}
}

// leaseTo delivers one VM to a job as an allocation event. parent is
// the span that freed the VM (market grant, acked revocation,
// voluntary release), so the trace chains capacity end to end.
func (a *arbiter) leaseTo(t simtime.Time, j *jobState, vm, gpus int, parent obs.SpanID) {
	j.leased[vm] = gpus
	j.leasedGPUs += gpus
	a.audit.lease(t, vm, j.idx, j.cfg.Name)
	a.audit.Leases++
	ev := spot.Event{At: t, Kind: spot.Alloc, VM: vm, GPUs: gpus}
	if a.tr.Enabled() {
		ls := a.tr.Instant(a.trkArb, parent, t, "arbiter", "lease")
		a.tr.SetArgs(ls,
			obs.I64("vm", int64(vm)), obs.I64("gpus", int64(gpus)),
			obs.Str("job", j.cfg.Name))
		if a.opts.Zones > 1 {
			a.tr.SetArgs(ls, obs.I64("zone", int64(vm%a.opts.Zones)))
		}
		ev.Cause = int64(ls)
	}
	j.feed.push(ev)
}

// cascades restores every under-floor job, in bid order, by revoking
// from strictly lower-bidding jobs that sit above their own floors —
// lowest bidder first, largest VM ids first within a victim. Revoked
// VMs enter the handoff queue; the victim sees a preemption at t.
func (a *arbiter) cascades(t simtime.Time, order []int, bids []float64) {
	for oi, idx := range order {
		j := a.jobs[idx]
		deficit := j.cfg.MinGPUs - j.leasedGPUs
		if deficit <= 0 {
			continue
		}
		var c *Cascade
		var cspan obs.SpanID
		// Walk candidates from the lowest bid upward; only strictly
		// lower bids than the beneficiary's are revocable.
		for vi := len(order) - 1; vi > oi && deficit > 0; vi-- {
			v := a.jobs[order[vi]]
			if bids[order[vi]] >= bids[idx] {
				break
			}
			for deficit > 0 && v.leasedGPUs > v.cfg.MinGPUs {
				vm, gpus := v.largestLease()
				if vm < 0 || v.leasedGPUs-gpus < v.cfg.MinGPUs {
					break
				}
				// Priority order is an invariant, not just policy:
				// every job bidding below this victim must already be
				// at its floor.
				for wi := len(order) - 1; wi > vi; wi-- {
					w := a.jobs[order[wi]]
					if bids[order[wi]] < bids[order[vi]] && w.leasedGPUs > w.cfg.MinGPUs {
						a.audit.violate("t=%v: cascade for %q revokes from %q while lower-bidding %q has revocable capacity",
							t, j.cfg.Name, v.cfg.Name, w.cfg.Name)
					}
				}
				delete(v.leased, vm)
				v.leasedGPUs -= gpus
				a.audit.unlease(vm)
				a.audit.Revocations++
				if c == nil {
					a.audit.Cascades = append(a.audit.Cascades, Cascade{At: t, For: j.cfg.Name, ForBid: bids[idx]})
					c = &a.audit.Cascades[len(a.audit.Cascades)-1]
					if a.tr.Enabled() {
						cspan = a.tr.Instant(a.trkArb, a.curTick, t, "arbiter", "cascade")
						a.tr.SetArgs(cspan, obs.Str("for", j.cfg.Name), obs.I64("deficit_gpus", int64(deficit)))
					}
				}
				rev := spot.Event{At: t, Kind: spot.Preempt, VM: vm, GPUs: gpus}
				var rvspan obs.SpanID
				if a.tr.Enabled() {
					rvspan = a.tr.Instant(a.trkArb, cspan, t, "arbiter", "revoke")
					a.tr.SetArgs(rvspan,
						obs.I64("vm", int64(vm)), obs.I64("gpus", int64(gpus)),
						obs.Str("victim", v.cfg.Name))
					rev.Cause = int64(rvspan)
				}
				a.pending = append(a.pending, handoff{vm: vm, gpus: gpus, at: t, victim: v.idx, cause: rvspan})
				v.feed.push(rev)
				c.Victims = append(c.Victims, CascadeVictim{Job: v.cfg.Name, Bid: bids[order[vi]], VM: vm})
				deficit -= gpus
			}
		}
	}
}

// largestLease picks the job's highest-id leased VM — the
// deterministic revocation order within one victim.
func (j *jobState) largestLease() (vm, gpus int) {
	vm = -1
	for id := range j.leased {
		if id > vm {
			vm = id
		}
	}
	if vm >= 0 {
		gpus = j.leased[vm]
	}
	return vm, gpus
}

// jobFeed is the manager.Feed the arbiter drives one job through:
// leases and revocations queue here, and the consumed clock (advanced
// by every Pop the job's control loop makes) acknowledges revocation
// handoffs.
type jobFeed struct {
	arb *arbiter
	job *jobState

	evs      []spot.Event
	head     int
	consumed simtime.Time
}

func (f *jobFeed) push(ev spot.Event) { f.evs = append(f.evs, ev) }

func (f *jobFeed) Pop(now simtime.Time) (spot.Event, bool) {
	if now > f.consumed {
		f.consumed = now
	}
	if f.head < len(f.evs) && f.evs[f.head].At <= now {
		ev := f.evs[f.head]
		f.head++
		return ev, true
	}
	return spot.Event{}, false
}

func (f *jobFeed) NextAt(now simtime.Time) (simtime.Time, bool) {
	at := simtime.Time(0)
	ok := false
	if f.head < len(f.evs) {
		at, ok = f.evs[f.head].At, true
	}
	// Wake at the next arbiter tick even with no event queued: the
	// tick may deliver a lease, and a training job must yield the
	// clock so the probe loop can interleave.
	if f.arb.hasNext && (!ok || f.arb.nextTick < at) {
		at, ok = f.arb.nextTick, true
	}
	return at, ok
}

// Release returns a voluntarily-released VM to the arbiter's free
// list for other jobs — under a shared fleet the one-way door swings
// back.
func (f *jobFeed) Release(vm int, at simtime.Time) {
	j := f.job
	g, ok := j.leased[vm]
	if !ok {
		return
	}
	delete(j.leased, vm)
	j.leasedGPUs -= g
	j.released[vm] = true
	f.arb.audit.unlease(vm)
	f.arb.audit.Releases++
	f.arb.audit.releasedToPool(vm)
	var cause obs.SpanID
	if f.arb.tr.Enabled() {
		cause = f.arb.tr.Instant(f.arb.trkArb, 0, at, "arbiter", "release")
		f.arb.tr.SetArgs(cause,
			obs.I64("vm", int64(vm)), obs.I64("gpus", int64(g)),
			obs.Str("from", j.cfg.Name))
	}
	f.arb.free = append(f.arb.free, freeVM{vm: vm, gpus: g, from: j.idx, cause: cause})
}

func (f *jobFeed) Driven() bool { return true }
