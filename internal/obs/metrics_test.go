package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCountersGauges(t *testing.T) {
	m := NewMetrics()
	m.Count("a", 2)
	m.Count("a", 3)
	m.Gauge("g", 1.5)
	m.Gauge("g", 2.5) // latest wins
	s := m.Snapshot(All)
	if s.Counters["a"] != 5 {
		t.Fatalf("counter a = %d", s.Counters["a"])
	}
	if s.Gauges["g"] != 2.5 {
		t.Fatalf("gauge g = %v", s.Gauges["g"])
	}
}

func TestHistogram(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 1000; i++ {
		m.Observe("lat", float64(i))
	}
	h := m.Snapshot(All).Histograms["lat"]
	if h.Count != 1000 || h.Min != 1 || h.Max != 1000 {
		t.Fatalf("count/min/max %+v", h)
	}
	if h.Mean < 500 || h.Mean > 501 {
		t.Fatalf("mean %v", h.Mean)
	}
	// The log2 layout guarantees quantiles within 2× of the true value
	// (upper bucket bound), clamped to the observed max.
	if h.P50 < 500 || h.P50 > 1000 {
		t.Fatalf("p50 %v outside [500,1000]", h.P50)
	}
	if h.P99 < 990/2 || h.P99 > 1000 {
		t.Fatalf("p99 %v", h.P99)
	}
	if h.Max != 1000 || h.P99 > h.Max {
		t.Fatalf("p99 %v > max %v", h.P99, h.Max)
	}

	// Sub-1 values land in bucket 0.
	m.Observe("tiny", 0.25)
	if th := m.Snapshot(All).Histograms["tiny"]; th.Count != 1 || th.P50 > 1 {
		t.Fatalf("tiny %+v", th)
	}
}

func TestSnapshotModes(t *testing.T) {
	m := NewMetrics()
	m.Count("planner.sweeps", 1)
	m.Count("wall.ticks", 1)
	m.Gauge("dollars.total", 5)
	m.Gauge("wall.g", 1)
	m.Observe("manager.recovery_us", 10)
	m.Observe("wall.planner.sweep_us", 10)

	sim := m.Snapshot(SimOnly)
	for name := range sim.Counters {
		if isWall(name) {
			t.Fatalf("SimOnly kept %q", name)
		}
	}
	if _, ok := sim.Histograms["wall.planner.sweep_us"]; ok {
		t.Fatal("SimOnly kept a wall histogram")
	}
	if _, ok := sim.Histograms["manager.recovery_us"]; !ok {
		t.Fatal("SimOnly dropped a sim histogram")
	}

	wall := m.Snapshot(WallOnly)
	if len(wall.Counters) != 1 || len(wall.Gauges) != 1 || len(wall.Histograms) != 1 {
		t.Fatalf("WallOnly kept %d/%d/%d", len(wall.Counters), len(wall.Gauges), len(wall.Histograms))
	}
	if _, ok := wall.Histograms["wall.planner.sweep_us"]; !ok {
		t.Fatal("WallOnly dropped the wall histogram")
	}

	all := m.Snapshot(All)
	if len(all.Counters) != 2 || len(all.Gauges) != 2 || len(all.Histograms) != 2 {
		t.Fatal("All filtered something")
	}
}

func TestSnapshotJSONByteStable(t *testing.T) {
	build := func() *Metrics {
		m := NewMetrics()
		m.Count("b", 2)
		m.Count("a", 1)
		m.Gauge("z", 9)
		m.Gauge("y", 8)
		m.Observe("h2", 4)
		m.Observe("h1", 3)
		return m
	}
	j1, err := json.MarshalIndent(build().Snapshot(All), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.MarshalIndent(build().Snapshot(All), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshot JSON not byte-stable:\n%s\nvs\n%s", j1, j2)
	}
}

func TestSummarySorted(t *testing.T) {
	m := NewMetrics()
	m.Observe("zz", 1)
	m.Observe("aa", 2)
	sum := m.Snapshot(All).Summary()
	if !strings.Contains(sum, "aa") || !strings.Contains(sum, "zz") {
		t.Fatalf("summary missing names:\n%s", sum)
	}
	if strings.Index(sum, "aa") > strings.Index(sum, "zz") {
		t.Fatalf("summary not sorted:\n%s", sum)
	}
	if (Snap{}).Summary() != "" {
		t.Fatal("empty snapshot summary not empty")
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	if m.Enabled() {
		t.Fatal("nil metrics enabled")
	}
	m.Count("a", 1)
	m.Gauge("g", 1)
	m.Observe("h", 1)
	s := m.Snapshot(All)
	if s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatal("nil metrics snapshot non-empty")
	}
}
