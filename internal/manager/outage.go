package manager

import (
	"sort"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/restart"
	"repro/internal/simtime"
)

// DomainOutage schedules a correlated mass preemption scoped to one
// failure domain: at At, every VM mapped to Domain at Level is gone.
// The scenario compiler pairs each outage with the per-VM Preempt
// events that empty the domain; the manager's job here is the
// checkpoint-survivability accounting — whether the §4.5 shards still
// exist somewhere after the domain vanished, and what resuming from
// the surviving replicas costs.
type DomainOutage struct {
	At     simtime.Time
	Level  hw.DomainLevel
	Domain int
}

// recordCheckpointVMs snapshots the ids of the live VMs that hold the
// checkpoint just written; settlement maps them to domains at any
// level through hw.Topology.DomainOfVM. No-op on flat clusters.
func (r *timelineRun) recordCheckpointVMs() {
	if !r.mg.RM.Cluster.Topo.Defined() {
		return
	}
	r.ckptVMs = r.ckptVMs[:0]
	for id := range r.live {
		r.ckptVMs = append(r.ckptVMs, id)
	}
}

// ckptIn reports whether some VM of the last checkpoint lies in domain
// dom at level.
func (r *timelineRun) ckptIn(level hw.DomainLevel, dom int) bool {
	topo := r.mg.RM.Cluster.Topo
	for _, id := range r.ckptVMs {
		if topo.DomainOfVM(id, level) == dom {
			return true
		}
	}
	return false
}

// ckptSpread reports whether the VMs of the last checkpoint span at
// least two domains at level.
func (r *timelineRun) ckptSpread(level hw.DomainLevel) bool {
	topo := r.mg.RM.Cluster.Topo
	for _, id := range r.ckptVMs {
		if topo.DomainOfVM(id, level) != topo.DomainOfVM(r.ckptVMs[0], level) {
			return true
		}
	}
	return false
}

// applyOutagesDue settles the checkpoint-survivability of every domain
// outage due by now. Three outcomes:
//
//   - vacuous: no checkpoint exists (ckptVMs is nil) or none of its
//     VMs lies in the lost domain — the preemption rollback already
//     accounted every loss there is.
//   - failover: replication spreads every shard over distinct domains
//     at a level at or above the outage's, and the checkpoint's VMs
//     span ≥ 2 of them, so every shard survives in some other domain.
//     The job pays the restart-model-priced cross-domain fetch
//     (restart.Model.Failover) as downtime and keeps its progress.
//   - unrecoverable: shards lived only in the lost domain. All
//     progress is discarded — the quantified cost of running without
//     replication that the zone-failover drill reports.
func (r *timelineRun) applyOutagesDue() {
	for r.outIdx < len(r.outs) && r.outs[r.outIdx].At <= r.now {
		o := r.outs[r.outIdx]
		r.outIdx++
		var ospan obs.SpanID
		if r.tr.Enabled() {
			ospan = r.tr.Instant(r.trk, r.cause, r.now, "fleet", "outage")
			r.tr.SetArgs(ospan,
				obs.Str("level", o.Level.String()),
				obs.I64("domain", int64(o.Domain)))
			r.cause = ospan
		}
		if !r.ckptIn(o.Level, o.Domain) {
			continue // vacuous: nothing durable was in the lost domain
		}
		p := r.mg.Opts.Replication
		if p.Enabled() && p.Spread >= o.Level && r.ckptSpread(p.Spread) {
			r.failover(o, ospan)
			continue
		}
		// Unrecoverable: the only copies of some shards died with the
		// domain. The job keeps running on survivors but from scratch.
		r.stats.LostMiniBatches += r.stats.MiniBatches
		r.stats.Examples = 0
		r.stats.MiniBatches = 0
		r.stats.UnrecoverableOutages++
		r.ckptVMs = nil
		if r.tr.Enabled() {
			id := r.tr.Instant(r.trk, ospan, r.now, "manager", "outage-loss")
			r.tr.SetArgs(id, obs.I64("lost_minibatches", int64(r.stats.LostMiniBatches)))
		}
		r.emit(ospan, TimelinePoint{
			At: r.now, GPUs: r.usableGPUs(), Event: "outage-loss",
			DollarsSpent: r.dollars(),
		})
	}
}

// failover restarts the job from the surviving replicated shards: the
// lost domain's VMs leave the checkpoint record, so its racks, zones
// and region stop counting as holders at every level, and the
// cross-domain full-state fetch is charged as downtime at the restart
// model's price.
func (r *timelineRun) failover(o DomainOutage, ospan obs.SpanID) {
	topo := r.mg.RM.Cluster.Topo
	kept := r.ckptVMs[:0]
	for _, id := range r.ckptVMs {
		if topo.DomainOfVM(id, o.Level) != o.Domain {
			kept = append(kept, id)
		}
	}
	r.ckptVMs = kept
	r.stats.Failovers++
	var down simtime.Duration
	if r.running {
		costs := r.mg.RM.Failover(restart.Assignment{Stages: r.current.Stages, D: r.current.D})
		down = costs.Total()
		if down > 0 {
			var fspan obs.SpanID
			if r.tr.Enabled() {
				fspan = r.tr.Begin(r.trk, ospan, r.now, "manager", "failover")
				r.tr.SetArgs(fspan,
					obs.Str("level", o.Level.String()),
					obs.I64("domain", int64(o.Domain)))
				restart.TracePhases(r.tr, r.trk, fspan, r.now, costs)
			}
			r.chargeDowntime(r.now.Add(down))
			r.stats.Downtime += down
			r.stats.FailoverDowntime += down
			r.met.Observe("manager.failover_downtime_us", float64(down))
			r.now = r.now.Add(down)
			if r.tr.Enabled() {
				r.tr.End(fspan, r.now)
				r.cause = fspan
			}
		}
	}
	r.emit(ospan, TimelinePoint{
		At: r.now, GPUs: r.usableGPUs(), Event: "failover", Downtime: down,
		DollarsSpent: r.dollars(),
	})
}

// sortOutages orders the outage schedule for the run.
func sortOutages(outs []DomainOutage) []DomainOutage {
	if len(outs) == 0 {
		return nil
	}
	s := append([]DomainOutage(nil), outs...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
	return s
}
