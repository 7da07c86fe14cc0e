package obs

import (
	"testing"

	"repro/internal/simtime"
)

// at converts a duration offset into an absolute sample instant.
func at(d simtime.Duration) simtime.Time { return simtime.Time(d) }

func TestParseSLOExpr(t *testing.T) {
	cases := []struct {
		expr      string
		series    string
		agg, op   string
		threshold float64
	}{
		{"recovery-p99 < 120s", "recovery", "p99", "<", 120},
		{"downtime-fraction < 3%", "downtime-fraction", "last", "<", 0.03},
		{"dollars-per-kex < 0.8", "dollars-per-kex", "last", "<", 0.8},
		{"idle-fraction <= 10%", "idle-fraction", "last", "<=", 0.10},
		{"gpus-min >= 8", "gpus", "min", ">=", 8},
		{"throughput-mean > 500ms", "throughput", "mean", ">", 0.5},
		{"recovery-max < 2m", "recovery", "max", "<", 120},
		{"recovery-p50 < 1.5h", "recovery", "p50", "<", 5400},
	}
	for _, c := range cases {
		series, agg, op, th, err := ParseSLOExpr(c.expr)
		if err != nil {
			t.Fatalf("%q: %v", c.expr, err)
		}
		if series != c.series || agg != c.agg || op != c.op || th != c.threshold {
			t.Fatalf("%q → (%q,%q,%q,%v)", c.expr, series, agg, op, th)
		}
	}
}

func TestParseSLOExprRejects(t *testing.T) {
	for _, expr := range []string{
		"", "recovery <", "recovery ~ 5", "recovery < banana",
		"a b c d", "-p99 < 5",
	} {
		if _, _, _, _, err := ParseSLOExpr(expr); err == nil {
			t.Fatalf("%q: want error", expr)
		}
	}
}

func TestMonitorImmediateBreach(t *testing.T) {
	m := &Monitor{Name: "d", Op: "<", Threshold: 0.03, Agg: "last"}
	m.Observe(0, 0.01)
	if m.Result().Breaches != 0 {
		t.Fatal("compliant sample breached")
	}
	m.Observe(at(simtime.Hour), 0.05)
	if m.Result().Breaches != 1 {
		t.Fatalf("breaches %d", m.Result().Breaches)
	}
	// Still violating: same episode, no second breach.
	m.Observe(at(2*simtime.Hour), 0.06)
	if m.Result().Breaches != 1 {
		t.Fatalf("episode double-counted: %d", m.Result().Breaches)
	}
	// Recover, then violate again: a new episode.
	m.Observe(at(3*simtime.Hour), 0.01)
	m.Observe(at(4*simtime.Hour), 0.09)
	if m.Result().Breaches != 2 {
		t.Fatalf("second episode not counted: %d", m.Result().Breaches)
	}
	r := m.Result()
	if r.OK || r.Breaches != 2 || r.Worst != 0.09 || r.FirstBreachHours != 1 {
		t.Fatalf("result %+v", r)
	}
}

func TestMonitorBurnWindow(t *testing.T) {
	m := &Monitor{Name: "d", Op: "<", Threshold: 10, Agg: "last", For: 30 * simtime.Minute}
	m.Observe(0, 50) // violation starts, burn window not yet elapsed
	if m.Result().Breaches != 0 {
		t.Fatal("breached before burn window elapsed")
	}
	m.Observe(at(10*simtime.Minute), 50)
	if m.Result().Breaches != 0 {
		t.Fatal("breached mid-burn")
	}
	m.Observe(at(30*simtime.Minute), 50)
	if m.Result().Breaches != 1 {
		t.Fatalf("burn window elapsed, breaches %d", m.Result().Breaches)
	}
	// A blip that recovers inside the window never breaches.
	m2 := &Monitor{Name: "d", Op: "<", Threshold: 10, Agg: "last", For: 30 * simtime.Minute}
	m2.Observe(0, 50)
	m2.Observe(at(10*simtime.Minute), 5)
	m2.Observe(at(20*simtime.Minute), 50)
	m2.Observe(at(40*simtime.Minute), 5)
	if m2.Result().Breaches != 0 {
		t.Fatalf("blips breached: %d", m2.Result().Breaches)
	}
}

func TestMonitorRollingQuantile(t *testing.T) {
	m := &Monitor{Name: "r", Op: "<", Threshold: 100, Agg: "p99", Window: simtime.Hour}
	for i := 0; i < 10; i++ {
		m.Observe(simtime.Time(i)*at(simtime.Minute), 50)
	}
	if m.Result().Breaches != 0 {
		t.Fatal("p99 of 50s breached threshold 100")
	}
	m.Observe(simtime.Time(10)*at(simtime.Minute), 500)
	if m.Result().Breaches != 1 {
		t.Fatalf("p99 should include the 500 spike: %d", m.Result().Breaches)
	}
	// After the window slides past the spike, the aggregate recovers.
	m.Observe(simtime.Time(3)*at(simtime.Hour), 50)
	if r := m.Result(); r.Last != 50 {
		t.Fatalf("window failed to evict spike: last=%v", r.Last)
	}
}

func TestMonitorOnBreachFiresOncePerEpisode(t *testing.T) {
	var fired []simtime.Time
	m := &Monitor{
		Name: "d", Op: "<", Threshold: 1, Agg: "last",
		OnBreach: func(at simtime.Time, v float64) { fired = append(fired, at) },
	}
	m.Observe(1, 5)
	m.Observe(2, 5)
	m.Observe(3, 0)
	m.Observe(4, 5)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 4 {
		t.Fatalf("OnBreach fired at %v", fired)
	}
}

func TestMonitorGreaterOps(t *testing.T) {
	m := &Monitor{Name: "g", Op: ">=", Threshold: 8, Agg: "last"}
	m.Observe(0, 10)
	m.Observe(1, 4)
	m.Observe(2, 12)
	r := m.Result()
	if r.Breaches != 1 || r.Worst != 4 {
		t.Fatalf("result %+v", r)
	}
}
