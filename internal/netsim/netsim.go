// Package netsim models the network fabric between GPUs: point-to-point
// activation/gradient transfers with latency and jitter, and ring
// allreduce for data-parallel gradient synchronization. The allreduce
// model is the bandwidth-optimal ring (Patarasuk & Yuan): each member
// sends and receives 2·(D−1)/D of the payload, in 2·(D−1) latency-bound
// steps. Concurrent allreduces sharing a NIC contend for bandwidth,
// which is the k-in-flight effect Varuna's calibration measures (§4.3).
package netsim

import (
	"math"

	"repro/internal/hw"
	"repro/internal/simtime"
)

// RingStragglerFactor is the expected slowdown of a synchronized ring
// step across d members whose per-hop times jitter with coefficient of
// variation cv: every step completes at the pace of its slowest hop,
// and the expected maximum of d roughly-normal samples sits near
// mean·(1 + cv·√(2·ln d)). This is why data-parallel allreduce scales
// poorly in D on commodity networks — the pressure behind Varuna's
// deep-pipeline preference at large G (Observation 2).
func RingStragglerFactor(d int, cv float64) float64 {
	if d < 2 || cv <= 0 {
		return 1
	}
	return 1 + cv*math.Sqrt(2*math.Log(float64(d)))
}

// Fabric evaluates transfer times over a set of links.
type Fabric struct {
	// Contention multiplies serialization time on shared links to
	// account for oversubscribed datacenter switches between
	// arbitrarily-placed spot VMs. 1.0 = no contention.
	Contention float64
}

// New returns a fabric with the given switch-contention factor.
func New(contention float64) Fabric {
	if contention < 1 {
		contention = 1
	}
	return Fabric{Contention: contention}
}

// serialization reports the byte-time of moving n bytes over l.
func (f Fabric) serialization(n int64, l hw.Link) simtime.Duration {
	if n <= 0 {
		return 0
	}
	sec := float64(n) / l.BandwidthBps
	if l.Kind == hw.LinkEthernet {
		sec *= f.Contention
	}
	return simtime.FromSeconds(sec)
}

// PointToPoint reports the mean time to move n bytes over l: one-way
// latency plus serialization. Jitter is applied by the caller (the
// testbed samples it per transfer; the parametric simulator folds in
// the calibrated mean+jitter).
func (f Fabric) PointToPoint(n int64, l hw.Link) simtime.Duration {
	return l.Latency + f.serialization(n, l)
}

// AllReduce reports the time for a ring allreduce of n bytes per member
// over a ring of d members joined by link l, with inFlight concurrent
// allreduces sharing each NIC (Varuna's calibration runs k allreduces
// in flight where k is GPUs per node, §4.3).
func (f Fabric) AllReduce(n int64, d int, l hw.Link, inFlight int) simtime.Duration {
	if d <= 1 || n <= 0 {
		return 0
	}
	if inFlight < 1 {
		inFlight = 1
	}
	steps := 2 * (d - 1)
	wire := int64(float64(n) * 2 * float64(d-1) / float64(d))
	t := simtime.Duration(int64(l.Latency) * int64(steps))
	ser := f.serialization(wire*int64(inFlight), l)
	ser = simtime.Duration(float64(ser)*RingStragglerFactor(d, l.JitterCV) + 0.5)
	return t + ser
}

// HierarchicalAllReduce reports the time for a two-level allreduce of
// n bytes per member across d members placed gpn-per-node
// (replica-major placement: the replicas of one pipeline stage pack
// into nodes, so the intra-node phase rides the fast local link and
// each node joins exactly one cross-node ring). For d ≤ gpn the whole
// ring is node-local.
func (f Fabric) HierarchicalAllReduce(n int64, d, gpn int, intra, inter hw.Link) simtime.Duration {
	if d <= 1 || n <= 0 {
		return 0
	}
	if gpn <= 1 {
		return f.AllReduce(n, d, inter, 1)
	}
	if d <= gpn {
		return f.AllReduce(n, d, intra, 1)
	}
	local := gpn
	if d%gpn != 0 {
		// Ragged placement: fall back to the largest full local group.
		local = d % gpn
		if local < 2 {
			local = gpn
		}
	}
	intraT := f.AllReduce(n, local, intra, 1)
	interT := f.AllReduce(n, (d+gpn-1)/gpn, inter, 1)
	return intraT + interT
}
