package hw

import "testing"

func TestLinkKindString(t *testing.T) {
	if LinkEthernet.String() != "ethernet" || LinkNVLink.String() != "nvlink" {
		t.Fatal("LinkKind names wrong")
	}
	if LinkKind(99).String() != "LinkKind(99)" {
		t.Fatal("unknown LinkKind formatting wrong")
	}
}

func TestLinkOrdering(t *testing.T) {
	// Sanity: bandwidth hierarchy matches reality.
	if !(Ethernet10G.BandwidthBps < PCIe3.BandwidthBps &&
		PCIe3.BandwidthBps < IB200G.BandwidthBps &&
		IB200G.BandwidthBps < NVLink.BandwidthBps) {
		t.Fatal("link bandwidth hierarchy violated")
	}
	if Ethernet10G.JitterCV <= NVLink.JitterCV {
		t.Fatal("commodity ethernet must have more jitter than NVLink")
	}
}

func TestSpotClusterShapes(t *testing.T) {
	c := SpotCluster(NC6v3, 300)
	if c.Nodes != 300 || c.NumGPUs() != 300 {
		t.Fatalf("1-GPU cluster: nodes=%d gpus=%d", c.Nodes, c.NumGPUs())
	}
	c4 := SpotCluster(NC24v3, 300)
	if c4.Nodes != 75 || c4.NumGPUs() != 300 {
		t.Fatalf("4-GPU cluster: nodes=%d gpus=%d", c4.Nodes, c4.NumGPUs())
	}
	if !c.LowPriority {
		t.Fatal("spot cluster must be low priority")
	}
	// Ragged GPU counts round the node count up.
	if SpotCluster(NC24v3, 294).Nodes != 74 {
		t.Fatal("ragged cluster must round nodes up")
	}
}

func TestLinkBetween(t *testing.T) {
	c := SpotCluster(NC24v3, 16)
	if got := c.LinkBetween(0, 3); got.Kind != LinkPCIe {
		t.Fatalf("same-node link = %v, want pcie", got.Kind)
	}
	if got := c.LinkBetween(0, 4); got.Kind != LinkEthernet {
		t.Fatalf("cross-node link = %v, want ethernet", got.Kind)
	}
	hc := Hypercluster(16)
	if got := hc.LinkBetween(0, 15); got.Kind != LinkNVLink {
		t.Fatalf("within DGX-2 = %v, want nvlink", got.Kind)
	}
	if got := hc.LinkBetween(0, 16); got.Kind != LinkInfiniband {
		t.Fatalf("across DGX-2 = %v, want infiniband", got.Kind)
	}
}

func TestLinkBetweenOutOfRange(t *testing.T) {
	// Out-of-range ranks must never be billed as intra-node traffic:
	// -1/4 == 0 under Go's truncating division, so before the guard a
	// negative rank aliased onto node 0.
	c := SpotCluster(NC24v3, 16)
	cases := [][2]int{{-1, 0}, {0, -1}, {-4, -4}, {16, 0}, {0, 16}, {100, 100}}
	for _, tc := range cases {
		if got := c.LinkBetween(tc[0], tc[1]); got != c.Inter {
			t.Fatalf("LinkBetween(%d,%d) = %v, want outermost (Inter) for flat cluster", tc[0], tc[1], got.Kind)
		}
	}
	// With a topology the outermost defined link is charged instead.
	tc := c
	tc.Topo = SpotTopology(4, 2, 2)
	if got := tc.LinkBetween(-1, 0); got.Kind != LinkWAN {
		t.Fatalf("topo out-of-range link = %v, want wan", got.Kind)
	}
}

func TestLinkBetweenTopology(t *testing.T) {
	// 4 zones x 2 racks x 2 nodes x 4 GPUs = 64 GPUs. Static packing:
	// node = rank/4, rack = node/2, zone = rack/2.
	c := SpotCluster(NC24v3, 64)
	c.Topo = SpotTopology(4, 2, 2)
	tests := []struct {
		name string
		a, b int
		kind LinkKind
	}{
		{"same node", 0, 3, LinkPCIe},
		{"same rack, different node", 0, 4, LinkEthernet},
		{"same zone, different rack", 0, 8, LinkEthernet}, // CrossRack = Ethernet10G
		{"different zone", 0, 16, LinkWAN},                // CrossZone = ZoneWAN
		{"far zones", 0, 48, LinkWAN},
	}
	for _, tt := range tests {
		if got := c.LinkBetween(tt.a, tt.b); got.Kind != tt.kind {
			t.Fatalf("%s: LinkBetween(%d,%d) = %v, want %v", tt.name, tt.a, tt.b, got.Kind, tt.kind)
		}
	}
	// Symmetry across every pair class.
	for _, tt := range tests {
		ab, ba := c.LinkBetween(tt.a, tt.b), c.LinkBetween(tt.b, tt.a)
		if ab != ba {
			t.Fatalf("%s: asymmetric link %v vs %v", tt.name, ab.Kind, ba.Kind)
		}
	}
	// Flat clusters are untouched by the rewrite.
	flat := SpotCluster(NC24v3, 64)
	if flat.LinkBetween(0, 3).Kind != LinkPCIe || flat.LinkBetween(0, 60).Kind != LinkEthernet {
		t.Fatal("flat cluster link classes changed")
	}
}

func TestDomainMappings(t *testing.T) {
	topo := SpotTopology(4, 2, 2)
	// Rank packing, seen through the link LinkBetween charges: 16 GPUs
	// per zone (2 racks x 2 nodes x 4 GPUs), two zones per region. The
	// cross-rack link differs from Inter here so every level shows.
	c := SpotCluster(NC24v3, 64)
	c.Topo = topo
	c.Topo.CrossRack = IB200G
	c.Topo.ZonesPerRegion = 2
	for _, tc := range []struct {
		a, b int
		want Link
	}{
		{0, 3, c.VM.Intra}, // node 0
		{0, 4, c.Inter},    // nodes 0 and 1 fill rack 0
		{0, 8, IB200G},     // racks 0 and 1 fill zone 0
		{16, 31, IB200G},   // zone 1
		{48, 63, IB200G},   // zone 3
		{0, 16, ZoneWAN},   // zones 0 and 1 form region 0
		{32, 63, ZoneWAN},  // zones 2 and 3 form region 1
		{0, 63, RegionWAN},
		{-1, 0, RegionWAN}, // out of range: the outermost link
	} {
		if got := c.LinkBetween(tc.a, tc.b); got != tc.want {
			t.Fatalf("LinkBetween(%d, %d) = %+v, want %+v", tc.a, tc.b, got, tc.want)
		}
	}
	// VM-id mapping is round-robin so zone spread is stationary under
	// churn, and the rack mapping refines the zone mapping.
	for id := 0; id < 32; id++ {
		if topo.DomainOfVM(id, DomainZone) != id%4 {
			t.Fatalf("vm %d zone mapping not round-robin", id)
		}
		if topo.DomainOfVM(id, DomainRack)%4 != topo.DomainOfVM(id, DomainZone) {
			t.Fatalf("vm %d rack mapping inconsistent with zone", id)
		}
	}
	// Regions group consecutive zones; without ZonesPerRegion every
	// zone shares region 0.
	regions := topo
	regions.ZonesPerRegion = 2
	for id := 0; id < 32; id++ {
		if got, want := regions.DomainOfVM(id, DomainRegion), (id%4)/2; got != want {
			t.Fatalf("vm %d region = %d, want %d", id, got, want)
		}
		if got := topo.DomainOfVM(id, DomainRegion); got != 0 {
			t.Fatalf("vm %d region = %d with ZonesPerRegion unset, want 0", id, got)
		}
	}
	// Undefined topologies map everything to 0.
	var flat Topology
	if flat.Defined() || flat.DomainOfVM(7, DomainZone) != 0 {
		t.Fatal("flat topology must be inert")
	}
}

func TestCrossLinkFallback(t *testing.T) {
	c := SpotCluster(NC24v3, 64)
	// Topology with only zones defined: cross-rack and cross-region
	// fall back inward.
	c.Topo = Topology{Zones: 2, CrossZone: ZoneWAN}
	if got := c.CrossLink(DomainRack); got != c.Inter {
		t.Fatalf("undefined cross-rack must fall back to Inter, got %v", got.Kind)
	}
	if got := c.CrossLink(DomainZone); got != ZoneWAN {
		t.Fatalf("cross-zone = %v, want wan", got.Kind)
	}
	if got := c.CrossLink(DomainRegion); got != ZoneWAN {
		t.Fatalf("undefined cross-region must fall back to cross-zone, got %v", got.Kind)
	}
}

func TestCostRatio(t *testing.T) {
	// Low-pri per-GPU-hour should be ~5x cheaper than the dedicated
	// hypercluster per-GPU-hour.
	spot := SpotCluster(NC6v3, 1).GPUHourCost()
	hc := Hypercluster(1).GPUHourCost()
	ratio := hc / spot
	if ratio < 4 || ratio > 7 {
		t.Fatalf("dedicated/spot cost ratio = %.2f, want ≈5", ratio)
	}
}

func TestHyperclusterGPUs(t *testing.T) {
	hc := Hypercluster(16)
	if hc.NumGPUs() != 256 {
		t.Fatalf("16 DGX-2 = %d GPUs, want 256", hc.NumGPUs())
	}
}
