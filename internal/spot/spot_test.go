package spot

import (
	"testing"

	"repro/internal/simtime"
)

func TestSingleGPUMoreAvailable(t *testing.T) {
	// Figure 3 / Observation 4: aggregate capacity from 1-GPU VMs
	// materially exceeds what 4-GPU VMs yield over a 16-hour window.
	one := NewMarket(1, 200, 42)
	four := NewMarket(4, 200, 42)
	horizon, probe := 16*simtime.Hour, 5*simtime.Minute
	target := 300
	avg := func(tr []Trace) float64 {
		var sum float64
		for _, s := range tr {
			sum += float64(s.GPUs)
		}
		return sum / float64(len(tr))
	}
	a1 := avg(AvailabilityTrace(one, target, horizon, probe))
	a4 := avg(AvailabilityTrace(four, target, horizon, probe))
	if a1 <= a4*1.2 {
		t.Fatalf("1-GPU avg %.1f must exceed 4-GPU avg %.1f by >20%%", a1, a4)
	}
	if a1 <= 0 || a4 <= 0 {
		t.Fatal("markets must yield some capacity")
	}
}

func TestTryAllocateRespectsCapacity(t *testing.T) {
	mk := NewMarket(4, 12, 1)
	// Exhaust the pool; held can never exceed what the pool supports.
	for i := 0; i < 100; i++ {
		mk.TryAllocate(0)
	}
	if mk.held > 12*2 { // pool swings with amplitude but never 100 VMs
		t.Fatalf("held %d exceeds any plausible capacity", mk.held)
	}
	// Releases return capacity.
	h := mk.held
	if h >= 4 {
		mk.Release()
		if mk.held != h-4 {
			t.Fatal("release must return one VM")
		}
	}
	// Releasing below zero is a no-op.
	for i := 0; i < 100; i++ {
		mk.Release()
	}
	if mk.held != 0 {
		t.Fatalf("held = %d after mass release", mk.held)
	}
	mk.Release()
	if mk.held != 0 {
		t.Fatal("release at zero must be a no-op")
	}
}

func TestPreemptionHazardPressure(t *testing.T) {
	mk := NewMarket(1, 100, 1)
	// Hold most of the pool: hazard must rise.
	loose := mk.PreemptionHazard(0)
	for i := 0; i < 90; i++ {
		mk.held++
	}
	tight := mk.PreemptionHazard(0)
	if tight <= loose {
		t.Fatalf("hazard must rise under pressure: %.4f vs %.4f", tight, loose)
	}
	if loose <= 0 {
		t.Fatal("baseline hazard must be positive")
	}
}

func TestAvailabilityTraceShape(t *testing.T) {
	mk := NewMarket(1, 150, 7)
	tr := AvailabilityTrace(mk, 200, 16*simtime.Hour, 5*simtime.Minute)
	if len(tr) != int(16*60/5)+1 {
		t.Fatalf("trace has %d samples", len(tr))
	}
	// Time is monotone; capacity varies (a flat trace means the market
	// dynamics are dead).
	varies := false
	for i := 1; i < len(tr); i++ {
		if tr[i].At <= tr[i-1].At {
			t.Fatal("trace times must increase")
		}
		if tr[i].GPUs != tr[i-1].GPUs {
			varies = true
		}
	}
	if !varies {
		t.Fatal("availability never changed over 16 hours")
	}
}

func TestEventTraceConsistency(t *testing.T) {
	mk := NewMarket(1, 120, 9)
	events := EventTrace(mk, 150, 60*simtime.Hour, 10*simtime.Minute)
	if len(events) == 0 {
		t.Fatal("no events over 60 hours")
	}
	live := make(map[int]bool)
	var preempts int
	for _, e := range events {
		switch e.Kind {
		case Alloc:
			if live[e.VM] {
				t.Fatalf("VM %d allocated twice", e.VM)
			}
			live[e.VM] = true
		case Preempt:
			if !live[e.VM] {
				t.Fatalf("VM %d preempted while not live", e.VM)
			}
			live[e.VM] = false
			preempts++
		}
	}
	if preempts == 0 {
		t.Fatal("a 60-hour spot trace must contain preemptions")
	}
	// Determinism.
	mk2 := NewMarket(1, 120, 9)
	events2 := EventTrace(mk2, 150, 60*simtime.Hour, 10*simtime.Minute)
	if len(events2) != len(events) {
		t.Fatal("same seed must give the same trace")
	}
}

func TestEventKindString(t *testing.T) {
	if Alloc.String() != "alloc" || Preempt.String() != "preempt" {
		t.Fatal("event kind names")
	}
	e := Event{At: simtime.Time(simtime.Hour), Kind: Preempt, VM: 3, GPUs: 4}
	if e.String() == "" {
		t.Fatal("event string empty")
	}
}

func TestGapEstimator(t *testing.T) {
	e := NewGapEstimator(30 * simtime.Minute)
	if e.Expected() != 30*simtime.Minute {
		t.Fatalf("no observations must return the prior, got %v", e.Expected())
	}
	// Simultaneous events collapse into one observation.
	e.Observe(0)
	e.Observe(0)
	if e.n != 0 || e.Expected() != 30*simtime.Minute {
		t.Fatalf("one instant is no gap: n=%d expected=%v", e.n, e.Expected())
	}
	// A steady 10-minute cadence converges to a 10-minute estimate.
	for i := 1; i <= 50; i++ {
		e.Observe(simtime.Time(i) * simtime.Time(10*simtime.Minute))
	}
	if e.n != 50 {
		t.Fatalf("observations = %d, want 50", e.n)
	}
	got := e.Expected()
	if got != 10*simtime.Minute {
		t.Fatalf("constant 10min gaps must estimate exactly 10min, got %v", got)
	}
	// A burst of rapid events pulls the estimate down, but EWMA keeps
	// it above the raw burst gap.
	last := simtime.Time(50) * simtime.Time(10*simtime.Minute)
	for i := 1; i <= 5; i++ {
		e.Observe(last.Add(simtime.Duration(i) * simtime.Minute))
	}
	after := e.Expected()
	if after >= got || after <= simtime.Minute {
		t.Fatalf("burst must pull %v below %v but stay above the 1min gap", after, got)
	}
}

func TestExpectedNextEvent(t *testing.T) {
	mk := NewMarket(1, 200, 7)
	one := mk.ExpectedNextEvent(0, 1)
	if one <= 0 {
		t.Fatalf("expected next event %v must be positive", one)
	}
	hundred := mk.ExpectedNextEvent(0, 100)
	if hundred >= one {
		t.Fatalf("100 VMs (%v) must see events sooner than 1 VM (%v)", hundred, one)
	}
	// Superposition: n times the hazard means 1/n the wait.
	if ratio := float64(one) / float64(hundred); ratio < 99 || ratio > 101 {
		t.Fatalf("hazard superposition off: ratio %.2f, want ~100", ratio)
	}
	if mk.ExpectedNextEvent(0, 0) != one {
		t.Fatal("vms < 1 must clamp to 1")
	}
}

// TestGapEstimatorPerKindBursty feeds the estimator the bursty regime
// the per-kind hazards exist for: allocations arriving on a slow
// steady cadence and preemptions clustering in a rapid burst. The
// pooled estimate blurs the two; the per-kind tracks must separate
// them, and the next-event projection must call the burst.
func TestGapEstimatorPerKindBursty(t *testing.T) {
	e := NewGapEstimator(30 * simtime.Minute)
	if _, ok := e.NextKind(); ok {
		t.Fatal("NextKind must not project before any per-kind gap exists")
	}
	// Steady allocations: one every hour for ten hours.
	for i := 0; i <= 10; i++ {
		e.ObserveKind(simtime.Time(i)*simtime.Time(simtime.Hour), Alloc)
	}
	// A reclaim burst: preemptions every 2 minutes starting at 10h30m.
	burst := simtime.Time(10*simtime.Hour + 30*simtime.Minute)
	for i := 0; i < 6; i++ {
		e.ObserveKind(burst.Add(simtime.Duration(i)*2*simtime.Minute), Preempt)
	}
	allocGap := e.ExpectedOf(Alloc)
	preGap := e.ExpectedOf(Preempt)
	if allocGap != simtime.Hour {
		t.Fatalf("steady hourly allocations must estimate exactly 1h, got %v", allocGap)
	}
	if preGap != 2*simtime.Minute {
		t.Fatalf("a 2-minute preemption burst must estimate exactly 2min, got %v", preGap)
	}
	if e.KindObservations(Alloc) != 10 || e.KindObservations(Preempt) != 5 {
		t.Fatalf("kind observations = %d/%d, want 10/5",
			e.KindObservations(Alloc), e.KindObservations(Preempt))
	}
	// Mid-burst, the next event is another preemption: the preemption
	// track projects minutes out while the alloc track projects on its
	// hourly cadence.
	k, ok := e.NextKind()
	if !ok || k != Preempt {
		t.Fatalf("mid-burst NextKind = %v, %v; want Preempt", k, ok)
	}
	// The pooled estimate is dragged far below the alloc cadence by the
	// burst — exactly the blur the per-kind hazards avoid.
	if pooled := e.Expected(); pooled >= allocGap {
		t.Fatalf("pooled estimate %v should sit below the alloc cadence %v", pooled, allocGap)
	}
	// Same-instant duplicates collapse per kind too.
	before := e.KindObservations(Preempt)
	lastPre := burst.Add(5 * 2 * simtime.Minute)
	e.ObserveKind(lastPre, Preempt)
	if e.KindObservations(Preempt) != before {
		t.Fatal("same-instant same-kind observation must collapse")
	}
	// After a long quiet spell the alloc track, projecting from its
	// later cadence, wins again once an allocation resumes the rhythm.
	e.ObserveKind(simtime.Time(11)*simtime.Time(simtime.Hour), Alloc)
	k, ok = e.NextKind()
	if !ok {
		t.Fatal("NextKind lost its projection")
	}
	// Preemption track still projects from the stale burst (10h40m +
	// 2min, long past), alloc projects 12h: the projection floor is the
	// event time, so the stale-but-past preempt projection still wins.
	// This conservatism is intentional — assert it so a future change
	// is a conscious one.
	if k != Preempt {
		t.Fatalf("stale burst projection should still win conservatively, got %v", k)
	}
}
