package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/simtime"
)

func TestPointToPointComponents(t *testing.T) {
	f := New(1)
	l := hw.Ethernet10G
	// Zero bytes: pure latency.
	if got := f.PointToPoint(0, l); got != l.Latency {
		t.Fatalf("0-byte transfer = %v, want latency %v", got, l.Latency)
	}
	// 875 MB/s effective → 8.75 MB takes ~10 ms.
	got := f.PointToPoint(8_750_000, l)
	want := l.Latency + 10*simtime.Millisecond
	if diff := got - want; diff < -simtime.Millisecond || diff > simtime.Millisecond {
		t.Fatalf("transfer = %v, want ≈%v", got, want)
	}
}

func TestContentionOnlyHitsEthernet(t *testing.T) {
	plain, congested := New(1), New(2)
	n := int64(10 << 20)
	if congested.PointToPoint(n, hw.Ethernet10G) <= plain.PointToPoint(n, hw.Ethernet10G) {
		t.Fatal("contention must slow ethernet")
	}
	if congested.PointToPoint(n, hw.NVLink) != plain.PointToPoint(n, hw.NVLink) {
		t.Fatal("contention must not affect NVLink")
	}
	if New(0.5).Contention != 1 {
		t.Fatal("contention must clamp to >= 1")
	}
}

func TestAllReduceDegenerate(t *testing.T) {
	f := New(1)
	if f.AllReduce(1<<20, 1, hw.Ethernet10G, 1) != 0 {
		t.Fatal("1-member allreduce must be free")
	}
	if f.AllReduce(0, 8, hw.Ethernet10G, 1) != 0 {
		t.Fatal("0-byte allreduce must be free")
	}
}

func TestAllReduceRingScaling(t *testing.T) {
	f := New(1)
	n := int64(100 << 20)
	// Ring allreduce wire volume 2(d-1)/d·n converges as d grows:
	// going 2→16 members costs at most 2x in serialization, plus
	// latency steps.
	t2 := f.AllReduce(n, 2, hw.Ethernet10G, 1)
	t16 := f.AllReduce(n, 16, hw.Ethernet10G, 1)
	if t16 <= t2 {
		t.Fatal("bigger ring must cost more")
	}
	if float64(t16) > 2.5*float64(t2) {
		t.Fatalf("ring scaling too steep: d=2 %v vs d=16 %v", t2, t16)
	}
}

func TestAllReduceInFlightContention(t *testing.T) {
	f := New(1)
	n := int64(10 << 20)
	one := f.AllReduce(n, 8, hw.Ethernet10G, 1)
	four := f.AllReduce(n, 8, hw.Ethernet10G, 4)
	if four <= one {
		t.Fatal("4 in-flight allreduces must be slower than 1")
	}
	if f.AllReduce(n, 8, hw.Ethernet10G, 0) != one {
		t.Fatal("inFlight<1 must clamp to 1")
	}
}

func TestAllReduceMonotoneInBytes(t *testing.T) {
	f := New(1.5)
	if err := quick.Check(func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return f.AllReduce(x, 4, hw.Ethernet10G, 2) <= f.AllReduce(y, 4, hw.Ethernet10G, 2)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPaperScaleAllReduce(t *testing.T) {
	// Data-parallel allreduce for one stage of 8.3B at P=18:
	// 8.3e9/18 params × 2 bytes ≈ 0.92 GB per replica. Over 10 GbE
	// with D=4 this must take seconds — the reason Varuna limits D
	// (Observation 2).
	f := New(1)
	params := 8.3e9 / 18.0
	stageBytes := int64(params) * 2
	d4 := f.AllReduce(stageBytes, 4, hw.Ethernet10G, 1)
	if d4 < simtime.Second || d4 > 10*simtime.Second {
		t.Fatalf("stage allreduce = %v, want seconds-scale", d4)
	}
	// The same allreduce over NVLink is milliseconds.
	nv := f.AllReduce(stageBytes, 4, hw.NVLink, 1)
	if nv > 100*simtime.Millisecond {
		t.Fatalf("NVLink allreduce = %v, want tens of ms", nv)
	}
}

func TestHierarchicalAllReduce(t *testing.T) {
	f := New(1)
	n := int64(100 << 20)
	// Degenerate: gpn=1 equals the flat ring.
	if f.HierarchicalAllReduce(n, 8, 1, hw.PCIe3, hw.Ethernet10G) != f.AllReduce(n, 8, hw.Ethernet10G, 1) {
		t.Fatal("gpn=1 must equal flat ring")
	}
	// Ring inside one node: intra link only, much faster than ethernet.
	local := f.HierarchicalAllReduce(n, 4, 4, hw.PCIe3, hw.Ethernet10G)
	flat := f.AllReduce(n, 4, hw.Ethernet10G, 1)
	if local >= flat/2 {
		t.Fatalf("node-local ring %v should be far below ethernet %v", local, flat)
	}
	// Two-level: more than one node but cheaper than a flat ethernet
	// ring of all members at the same size (fewer cross-node steps).
	two := f.HierarchicalAllReduce(n, 16, 4, hw.PCIe3, hw.Ethernet10G)
	flat16 := f.AllReduce(n, 16, hw.Ethernet10G, 1)
	if two >= flat16 {
		t.Fatalf("hierarchical %v should beat flat 16-ring %v", two, flat16)
	}
	if f.HierarchicalAllReduce(0, 16, 4, hw.PCIe3, hw.Ethernet10G) != 0 {
		t.Fatal("0 bytes is free")
	}
	if f.HierarchicalAllReduce(n, 1, 4, hw.PCIe3, hw.Ethernet10G) != 0 {
		t.Fatal("1 member is free")
	}
	// Ragged placement still produces a positive, finite time.
	if f.HierarchicalAllReduce(n, 7, 4, hw.PCIe3, hw.Ethernet10G) <= 0 {
		t.Fatal("ragged hierarchy must still cost time")
	}
}

func TestRingStragglerFactor(t *testing.T) {
	if RingStragglerFactor(1, 0.5) != 1 || RingStragglerFactor(8, 0) != 1 {
		t.Fatal("degenerate factors must be 1")
	}
	if RingStragglerFactor(4, 0.25) >= RingStragglerFactor(64, 0.25) {
		t.Fatal("factor must grow with ring size")
	}
	if RingStragglerFactor(8, 0.1) >= RingStragglerFactor(8, 0.3) {
		t.Fatal("factor must grow with jitter")
	}
}
