package hw

import (
	"fmt"

	"repro/internal/simtime"
)

// DomainLevel identifies one tier of the failure-domain hierarchy,
// innermost to outermost. A failure at a level takes out every GPU in
// the named domain at that level: a node failure kills the GPUs on one
// VM, a zone outage kills every VM mapped to that zone.
type DomainLevel int

// Failure-domain levels, innermost first.
const (
	DomainGPU DomainLevel = iota // a single GPU rank
	DomainNode
	DomainRack
	DomainZone
	DomainRegion
)

// String names the domain level.
func (l DomainLevel) String() string {
	switch l {
	case DomainGPU:
		return "gpu"
	case DomainNode:
		return "node"
	case DomainRack:
		return "rack"
	case DomainZone:
		return "zone"
	case DomainRegion:
		return "region"
	default:
		return fmt.Sprintf("DomainLevel(%d)", int(l))
	}
}

// Wide-area links joining the outer failure domains. Cross-rack traffic
// stays on datacenter ethernet; cross-zone hops ride a metro fiber ring
// with millisecond latency; cross-region transfers cross a WAN backbone.
var (
	ZoneWAN   = Link{Kind: LinkWAN, BandwidthBps: 0.60 * 5e9 / 8, Latency: 2 * simtime.Millisecond, JitterCV: 0.30}
	RegionWAN = Link{Kind: LinkWAN, BandwidthBps: 0.40 * 2e9 / 8, Latency: 30 * simtime.Millisecond, JitterCV: 0.40}
)

// Topology arranges a cluster's nodes into nested failure domains:
// nodes pack into racks, racks into zones, zones into regions. The
// zero value means "flat" — a single undifferentiated pool where the
// cluster's Inter link joins every pair of nodes, exactly the model
// the repo used before topologies existed.
type Topology struct {
	// Zones is the number of availability zones. Zones <= 1 leaves
	// the topology flat.
	Zones int
	// NodesPerRack and RacksPerZone shape the inner tiers; zero
	// values collapse the tier (every node in a zone shares one
	// rack).
	NodesPerRack int
	RacksPerZone int
	// ZonesPerRegion groups zones into regions; zero means all zones
	// share one region.
	ZonesPerRegion int
	// CrossRack, CrossZone and CrossRegion are the links joining
	// nodes in different domains at each level. Zero-valued links
	// fall back to the next-inner defined link (ultimately the
	// cluster's Inter link).
	CrossRack   Link
	CrossZone   Link
	CrossRegion Link
}

// Defined reports whether the topology names more than one failure
// domain; undefined topologies keep the flat-cluster behavior.
func (t Topology) Defined() bool { return t.Zones > 1 }

// domainOfNode maps a node index to its domain at the given level
// under static packing: consecutive nodes fill a rack, consecutive
// racks fill a zone, zones wrap round-robin so any node count spreads
// across all zones.
func (t Topology) domainOfNode(node int, level DomainLevel) int {
	if node < 0 {
		return -1
	}
	switch level {
	case DomainNode:
		return node
	}
	npr := t.NodesPerRack
	if npr <= 0 {
		npr = 1
	}
	rack := node / npr
	if level == DomainRack {
		return rack
	}
	rpz := t.RacksPerZone
	if rpz <= 0 {
		rpz = 1
	}
	zone := (rack / rpz) % t.Zones
	if level == DomainZone {
		return zone
	}
	zpr := t.ZonesPerRegion
	if zpr <= 0 {
		zpr = t.Zones
	}
	return zone / zpr
}

// DomainOfVM maps a market VM id to its domain at the given level. It
// is the one VM-to-domain mapping: the scenario compiler's outage
// victims, the fleet arbiter's zone outages and the manager's
// checkpoint settlement all ask it. VM ids are spread round-robin
// across zones so that the zone mix of a leased pool stays stationary
// as VMs churn: vm id % Zones is the zone, racks subdivide each zone
// the same way, and regions group ZonesPerRegion consecutive zones.
func (t Topology) DomainOfVM(id int, level DomainLevel) int {
	if !t.Defined() || id < 0 {
		return 0
	}
	switch level {
	case DomainGPU, DomainNode:
		return id
	case DomainRack:
		rpz := t.RacksPerZone
		if rpz <= 0 {
			rpz = 1
		}
		return id % (t.Zones * rpz)
	case DomainZone:
		return id % t.Zones
	default: // DomainRegion
		zpr := t.ZonesPerRegion
		if zpr <= 0 {
			zpr = t.Zones
		}
		return (id % t.Zones) / zpr
	}
}

// SpotTopology builds a standard zoned spot topology: racks of
// ethernet-joined nodes inside each zone, zones joined by a metro WAN
// ring, all in one region.
func SpotTopology(zones, racksPerZone, nodesPerRack int) Topology {
	return Topology{
		Zones:        zones,
		NodesPerRack: nodesPerRack,
		RacksPerZone: racksPerZone,
		CrossRack:    Ethernet10G,
		CrossZone:    ZoneWAN,
		CrossRegion:  RegionWAN,
	}
}

// CrossLink reports the link charged for traffic crossing domains at
// the given level, falling back inward through defined links and
// ultimately to the cluster's Inter link.
func (c Cluster) CrossLink(level DomainLevel) Link {
	t := c.Topo
	if !t.Defined() {
		return c.Inter
	}
	pick := func(l Link, fallback Link) Link {
		if l.BandwidthBps > 0 {
			return l
		}
		return fallback
	}
	rack := pick(t.CrossRack, c.Inter)
	zone := pick(t.CrossZone, rack)
	region := pick(t.CrossRegion, zone)
	switch level {
	case DomainGPU:
		return c.VM.Intra
	case DomainNode:
		return c.Inter
	case DomainRack:
		return rack
	case DomainZone:
		return zone
	default:
		return region
	}
}
