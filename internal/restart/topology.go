package restart

import (
	"repro/internal/hw"
	"repro/internal/simtime"
)

// This file prices reconfigurations on clusters with a defined
// failure-domain topology. Price reaches redistributeTimeTopo only when
// m.Cluster.Topo.Defined(), and the replication terms return zero
// unless the topology is defined and the policy enabled, so flat
// clusters keep their historical prices.

// ReplicationOverhead prices the extra network time one checkpoint
// round spends pushing shards to the (Replicas-1) cross-domain
// replicas. Pushes to different replicas serialize on the writer's
// uplink, so the bound is (k-1) transfers of the worst shard over the
// cross-domain link. Zero when replication is off or the cluster has
// no topology to spread over.
func (m *Model) ReplicationOverhead(a Assignment) simtime.Duration {
	if !m.Replication.Enabled() || !m.Cluster.Topo.Defined() || a.Empty() {
		return 0
	}
	worst := m.worstShard(a)
	if worst == 0 {
		return 0
	}
	link := m.Cluster.CrossLink(m.Replication.Spread)
	per := m.Fabric.PointToPoint(worst, link)
	return simtime.Duration(int64(m.Replication.Replicas-1)) * per
}

// Failover prices restarting from surviving replicated checkpoint
// state after an entire failure domain is lost: the job quiesces,
// every new (stage, replica) slot fetches its full stage state from a
// replica across the spread-level link (nothing local survives in the
// lost domain's slots, and cross-domain fetches dominate), and the
// processes re-warm. Returns zero costs when replication is off —
// there is nothing to fail over to.
func (m *Model) Failover(new Assignment) Costs {
	var c Costs
	if new.Empty() || !m.Replication.Enabled() || !m.Cluster.Topo.Defined() {
		return c
	}
	var maxFetch int64
	for _, st := range new.Stages {
		if b := m.rangeBytes(st.FirstOp, st.LastOp, 1, 0); b > maxFetch {
			maxFetch = b
		}
	}
	c.Stop = m.StopTime
	c.Redistribute = m.Fabric.PointToPoint(maxFetch, m.Cluster.CrossLink(m.Replication.Spread))
	c.Restart = m.RestartTime
	return c
}

// redistributeTimeTopo prices the old→new state movement over the
// actual failure-domain paths. Like the flat version, slots keep
// their flat rank across the morph (replica-major: rank = replica·P +
// stage) and a slot fetches only layers outside its old range — but
// each fetch now rides the link class joining the fetcher's rank to
// the nearest (fastest-linked) old rank holding the layer, so a morph
// that can satisfy its fetches rack-locally prices below one that
// must cross zones. Transfers on distinct link classes of one fetcher
// serialize on its NIC; the result is the slower of the busiest
// fetcher and the busiest server.
func (m *Model) redistributeTimeTopo(old, new Assignment) simtime.Duration {
	// holders[i] lists the old ranks holding layer i; slot w trains on
	// GPU rank w under the cluster's static packing.
	var holders [][]int
	if !old.Empty() {
		holders = make([][]int, len(m.LayerBytes))
		for w := 0; w < old.workers(); w++ {
			st := old.Stages[w%len(old.Stages)]
			for i := st.FirstOp; i <= st.LastOp && i < len(holders); i++ {
				holders[i] = append(holders[i], w)
			}
		}
	}
	type load struct {
		bytes map[hw.Link]int64
	}
	serve := make(map[int]*load)
	var maxTime simtime.Duration
	for w := 0; w < new.workers(); w++ {
		ns := new.Stages[w%len(new.Stages)]
		exFirst, exLast := 1, 0
		if !old.Empty() && w < old.workers() {
			os := old.Stages[w%len(old.Stages)]
			exFirst, exLast = os.FirstOp, os.LastOp
		}
		rank := w
		fetch := load{bytes: make(map[hw.Link]int64)}
		for i := ns.FirstOp; i <= ns.LastOp && i < len(m.LayerBytes); i++ {
			if i >= exFirst && i <= exLast {
				continue
			}
			b := m.LayerBytes[i]
			if b == 0 {
				continue
			}
			// Nearest holder: the serving rank with the fastest
			// link to this fetcher (ties break on lowest rank for
			// determinism). No holders (cold start) prices over
			// the flat Inter link as before.
			link := m.Link
			src := -1
			if i < len(holders) {
				for _, h := range holders[i] {
					l := m.Cluster.LinkBetween(rank, h)
					if src == -1 || l.BandwidthBps > link.BandwidthBps {
						link, src = l, h
					}
				}
			}
			fetch.bytes[link] += b
			if src >= 0 {
				s := serve[src]
				if s == nil {
					s = &load{bytes: make(map[hw.Link]int64)}
					serve[src] = s
				}
				s.bytes[link] += b
			}
		}
		if t := m.loadTime(fetch.bytes); t > maxTime {
			maxTime = t
		}
	}
	for _, s := range serve {
		// Checkpoint sharding splits each old stage's upload across
		// its D replicas, but nearest-replica selection already
		// spread demand across holders, so each server's attributed
		// bytes are charged in full.
		if t := m.loadTime(s.bytes); t > maxTime {
			maxTime = t
		}
	}
	return maxTime
}

// loadTime sums the transfer times of one endpoint's per-link-class
// byte totals (classes serialize on the endpoint's NIC).
func (m *Model) loadTime(bytes map[hw.Link]int64) simtime.Duration {
	var total simtime.Duration
	for link, b := range bytes {
		total += m.Fabric.PointToPoint(b, link)
	}
	return total
}
