package price

import (
	"math"
	"testing"

	"repro/internal/simtime"
)

func TestConstantCurve(t *testing.T) {
	c := Constant(2.5)
	if got := c.At(0); got != 2.5 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(simtime.Time(100 * simtime.Hour)); got != 2.5 {
		t.Fatalf("At(100h) = %v", got)
	}
	// One GPU for two hours at $2.5/GPU·h = $5.
	got := c.Integrate(0, simtime.Time(2*simtime.Hour))
	if math.Abs(got-5) > 1e-12 {
		t.Fatalf("Integrate = %v, want 5", got)
	}
	if m := c.Mean(0, simtime.Time(7*simtime.Hour)); math.Abs(m-2.5) > 1e-12 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestFromStepsValidation(t *testing.T) {
	if _, err := FromSteps(nil); err == nil {
		t.Fatal("empty trace must fail")
	}
	if _, err := FromSteps([]Step{{At: 0, PerGPUHour: -1}}); err == nil {
		t.Fatal("negative price must fail")
	}
	if _, err := FromSteps([]Step{{At: 5, PerGPUHour: 1}, {At: 5, PerGPUHour: 2}}); err == nil {
		t.Fatal("non-increasing steps must fail")
	}
}

func TestStepCurveAtAndIntegrate(t *testing.T) {
	h := simtime.Time(simtime.Hour)
	c, err := FromSteps([]Step{
		{At: 1 * h, PerGPUHour: 1},
		{At: 2 * h, PerGPUHour: 3},
		{At: 4 * h, PerGPUHour: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Before the first step the first price applies.
	if got := c.At(0); got != 1 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(2 * h); got != 3 {
		t.Fatalf("At(2h) = %v (right-continuous)", got)
	}
	if got := c.At(10 * h); got != 2 {
		t.Fatalf("At(10h) = %v (last price holds)", got)
	}
	// [0h, 5h]: 2h at $1 + 2h at $3 + 1h at $2 = $10.
	got := c.Integrate(0, 5*h)
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("Integrate = %v, want 10", got)
	}
	// Window inside one step.
	got = c.Integrate(2*h+h/2, 3*h)
	if math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("partial-step Integrate = %v, want 1.5", got)
	}
	// Degenerate and reversed windows integrate to zero.
	if c.Integrate(3*h, 3*h) != 0 || c.Integrate(4*h, 3*h) != 0 {
		t.Fatal("empty window must integrate to 0")
	}
}

func TestIntegrateAdditive(t *testing.T) {
	c, err := MeanReverting(MROptions{Mean: 2, Vol: 0.2, Reversion: 0.3, Horizon: 24 * simtime.Hour}, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := simtime.Time(90 * simtime.Minute)
	b := simtime.Time(13*simtime.Hour + 17*simtime.Minute)
	mid := simtime.Time(5 * simtime.Hour)
	whole := c.Integrate(a, b)
	split := c.Integrate(a, mid) + c.Integrate(mid, b)
	if math.Abs(whole-split) > 1e-9 {
		t.Fatalf("Integrate not additive: %v vs %v", whole, split)
	}
}

func TestMeanRevertingDeterministicAndBounded(t *testing.T) {
	opts := MROptions{Mean: 3, Vol: 0.25, Reversion: 0.2, Horizon: 48 * simtime.Hour}
	a, err := MeanReverting(opts, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeanReverting(opts, 42)
	if err != nil {
		t.Fatal(err)
	}
	as, bs := a.steps, b.steps
	if len(as) == 0 || len(as) != len(bs) {
		t.Fatalf("step counts differ: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("step %d differs under the same seed: %+v vs %+v", i, as[i], bs[i])
		}
	}
	for i, s := range as {
		if s.PerGPUHour < opts.Mean/4 {
			t.Fatalf("step %d price %v below the default floor", i, s.PerGPUHour)
		}
	}
	other, err := MeanReverting(opts, 43)
	if err != nil {
		t.Fatal(err)
	}
	if same := func() bool {
		os := other.steps
		for i := range as {
			if as[i] != os[i] {
				return false
			}
		}
		return true
	}(); same {
		t.Fatal("different seeds must give different curves")
	}
	// The long-run average stays near the mean.
	m := a.Mean(0, simtime.Time(48*simtime.Hour))
	if m < opts.Mean*0.6 || m > opts.Mean*1.4 {
		t.Fatalf("48h mean %v too far from %v", m, opts.Mean)
	}
}

func TestMeanRevertingValidation(t *testing.T) {
	if _, err := MeanReverting(MROptions{Mean: 0, Reversion: 0.5, Horizon: simtime.Hour}, 1); err == nil {
		t.Fatal("Mean <= 0 must fail")
	}
	if _, err := MeanReverting(MROptions{Mean: 1, Reversion: 0, Horizon: simtime.Hour}, 1); err == nil {
		t.Fatal("Reversion = 0 must fail")
	}
	if _, err := MeanReverting(MROptions{Mean: 1, Reversion: 0.5}, 1); err == nil {
		t.Fatal("missing horizon must fail")
	}
}

func TestNilCurveIsFree(t *testing.T) {
	var c *Curve
	if c.At(0) != 0 || c.Integrate(0, simtime.Time(simtime.Hour)) != 0 {
		t.Fatal("nil curve must price at zero")
	}
}

func TestMeterBuckets(t *testing.T) {
	h := simtime.Time(simtime.Hour)
	m := NewMeter(Constant(2))
	m.Charge(Compute, 0, h, 10)            // 10 GPU·h at $2 = $20
	m.Charge(Idle, 0, h, 3)                // $6
	m.Charge(Reconfig, h, h+h/2, 13)       // 6.5 GPU·h = $13
	m.Charge(Compute, 2*h, 2*h, 5)         // empty span: free
	m.Charge(Compute, 3*h, 2*h, 5)         // reversed span: free
	m.Charge(Compute, 2*h, 3*h, 0)         // no GPUs: free
	(*Meter)(nil).Charge(Compute, 0, h, 5) // nil meter: no-op
	if got := m.InBucket(Compute); math.Abs(got-20) > 1e-9 {
		t.Fatalf("compute = %v", got)
	}
	if got := m.InBucket(Idle); math.Abs(got-6) > 1e-9 {
		t.Fatalf("idle = %v", got)
	}
	if got := m.InBucket(Reconfig); math.Abs(got-13) > 1e-9 {
		t.Fatalf("reconfig = %v", got)
	}
	if got := m.Total(); math.Abs(got-39) > 1e-9 {
		t.Fatalf("total = %v", got)
	}
	if (*Meter)(nil).Total() != 0 {
		t.Fatal("nil meter totals zero")
	}
}

func TestMeterStateRoundTripBitIdentical(t *testing.T) {
	c, err := MeanReverting(MROptions{Mean: 2.7, Vol: 0.3, Reversion: 0.25, Horizon: 24 * simtime.Hour}, 9)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter(c)
	// Accrue awkward fractions so the accumulators are full-precision
	// floats, not round numbers.
	at := simtime.Time(0)
	for i := 0; i < 57; i++ {
		next := at.Add(simtime.Duration(13*simtime.Minute + simtime.Duration(i)*7*simtime.Second))
		m.Charge(Bucket(i%int(NumBuckets)), at, next, 7+i%11)
		at = next
	}
	data, err := m.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewMeter(c)
	if err := fresh.ImportState(data); err != nil {
		t.Fatal(err)
	}
	for b := Bucket(0); b < NumBuckets; b++ {
		if fresh.InBucket(b) != m.InBucket(b) {
			t.Fatalf("%v not bit-identical after round trip: %v vs %v",
				b, fresh.InBucket(b), m.InBucket(b))
		}
	}
	if fresh.Total() != m.Total() {
		t.Fatalf("total not bit-identical: %v vs %v", fresh.Total(), m.Total())
	}
	if err := fresh.ImportState([]byte(`{"version": 99}`)); err == nil {
		t.Fatal("unknown version must fail")
	}
	if err := fresh.ImportState([]byte(`{`)); err == nil {
		t.Fatal("bad JSON must fail")
	}
}

func TestChooseMarket(t *testing.T) {
	horizon := 24 * simtime.Hour
	// Cheap but volatile: preempted every 2h, each costing 10min.
	cheap := Kind{
		Name: "1-GPU spot", Curve: Constant(1.0), GPUs: 100, ExPerSec: 100,
		PreemptEvery: 2 * simtime.Hour, RestartCost: 10 * simtime.Minute,
	}
	// Pricier but stable: preempted every 24h.
	stable := Kind{
		Name: "4-GPU spot", Curve: Constant(1.5), GPUs: 100, ExPerSec: 100,
		PreemptEvery: 24 * simtime.Hour, RestartCost: 10 * simtime.Minute,
	}
	best, scores := ChooseMarket(horizon, []Kind{cheap, stable})
	// cheap: $1·100·24 / (100·(120/130)·86400); stable uptime ~0.993.
	// The 50% price premium outweighs the ~7% uptime loss.
	if best != 0 {
		t.Fatalf("best = %d (scores %v), want the cheap kind", best, scores)
	}
	// Make preemptions ruinous: each one costs 1.5h of paid downtime.
	cheap.RestartCost = 90 * simtime.Minute
	best, scores = ChooseMarket(horizon, []Kind{cheap, stable})
	// cheap uptime = 2/(3.5) ≈ 0.57 → effective $/ex up ~1.75x.
	if best != 1 {
		t.Fatalf("best = %d (scores %v), want the stable kind", best, scores)
	}
	if scores[0] <= scores[1] {
		t.Fatalf("scores misordered: %v", scores)
	}
	// A kind that produces nothing scores +Inf and never wins.
	dead := Kind{Name: "dead", Curve: Constant(0.01), GPUs: 1, ExPerSec: 0}
	best, scores = ChooseMarket(horizon, []Kind{dead, stable})
	if best != 1 || !math.IsInf(scores[0], 1) {
		t.Fatalf("dead kind must lose: best %d scores %v", best, scores)
	}
	if best, _ := ChooseMarket(horizon, nil); best != -1 {
		t.Fatal("empty slate must report -1")
	}
}
