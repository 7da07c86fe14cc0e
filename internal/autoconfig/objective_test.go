package autoconfig

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/simtime"
)

// synth builds a synthetic evaluated choice with a given shape,
// throughput and footprint (Est derives from Examples/exPerSec).
func synth(p, d, gpus, examples int, exPerSec float64) Choice {
	return Choice{
		P: p, D: d, M: 4, Nm: 1,
		GPUsUsed: gpus,
		Examples: examples,
		Est:      simtime.FromSeconds(float64(examples) / exPerSec),
	}
}

func TestObjectiveValidate(t *testing.T) {
	if err := (Objective{}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Objective{Kind: ObjMinDollarPerExample}).Validate(); err != nil {
		t.Fatal(err)
	}
	if (Objective{Kind: ObjDeadline}).Validate() == nil {
		t.Fatal("deadline without target must fail")
	}
	for _, target := range []float64{math.NaN(), math.Inf(1), -1} {
		bad := Objective{Kind: ObjDeadline, DeadlineAt: simtime.Time(simtime.Hour), TargetExamples: target}
		if bad.Validate() == nil {
			t.Fatalf("deadline with target %v must fail", target)
		}
	}
	ok := Objective{Kind: ObjDeadline, DeadlineAt: simtime.Time(simtime.Hour), TargetExamples: 1e6}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if (Objective{Kind: ObjectiveKind(9)}).Validate() == nil {
		t.Fatal("unknown kind must fail")
	}
	if (Objective{}).Shrinks() {
		t.Fatal("max throughput must not shrink")
	}
	if !(Objective{Kind: ObjMinDollarPerExample}).Shrinks() || !ok.Shrinks() {
		t.Fatal("dollar objectives must shrink")
	}
}

// TestMinDollarChoiceShrinksOnSpike is the marginal-economics unit
// test: the same candidate ladder keeps the full fleet at mean price
// and walks down to the GPU-efficient core when the spot price
// spikes.
func TestMinDollarChoiceShrinksOnSpike(t *testing.T) {
	// A ladder with diminishing returns: throughput grows sublinearly
	// in GPUs (bubble + allreduce overheads), so the marginal
	// $-per-example of the top rungs is worse than the average.
	cands := []Choice{
		synth(18, 3, 54, 8192, 60),
		synth(18, 6, 108, 8192, 110), // marginal: 54 GPUs for +50 ex/s
		synth(18, 8, 144, 8192, 140), // marginal: 36 GPUs for +30 ex/s
	}
	sortChoices(cands)

	atMean := minDollarChoice(cands, Econ{PerGPUHour: 2.4, MeanPerGPUHour: 2.4})
	if atMean.GPUsUsed != 144 {
		t.Fatalf("at mean price the full fleet should pass the marginal test, got %d GPUs", atMean.GPUsUsed)
	}
	spike := minDollarChoice(cands, Econ{PerGPUHour: 2.4 * 2, MeanPerGPUHour: 2.4})
	if spike.GPUsUsed >= atMean.GPUsUsed {
		t.Fatalf("a 2x spike must shed marginal replicas: %d GPUs vs %d at mean", spike.GPUsUsed, atMean.GPUsUsed)
	}
	if spike.GPUsUsed != 54 {
		t.Fatalf("2x spike should fall back to the GPU-efficient core (54), got %d", spike.GPUsUsed)
	}
	cheap := minDollarChoice(cands, Econ{PerGPUHour: 2.4 / 2, MeanPerGPUHour: 2.4})
	if cheap.GPUsUsed != 144 {
		t.Fatalf("a cheap period must keep the full fleet, got %d GPUs", cheap.GPUsUsed)
	}
	// A dominating candidate (more throughput, no more GPUs) always
	// wins regardless of price.
	dominating := append(append([]Choice(nil), cands...), synth(9, 6, 54, 8192, 70))
	sortChoices(dominating)
	spike = minDollarChoice(dominating, Econ{PerGPUHour: 24, MeanPerGPUHour: 2.4})
	if spike.TotalExPerSec() < 69 {
		t.Fatalf("dominating candidate must win under any price, got %+v", spike)
	}
}

func TestRequiredRateAndDeadlineChoice(t *testing.T) {
	obj := Objective{Kind: ObjDeadline, DeadlineAt: simtime.Time(2 * simtime.Hour), TargetExamples: 720000}
	ec := Econ{Now: simtime.Time(simtime.Hour), DoneExamples: 360000}
	// 360k examples left in 3600s → 100 ex/s × 1.5 margin.
	if got := requiredRate(obj, ec); got < 149 || got > 151 {
		t.Fatalf("requiredRate = %v, want ~150", got)
	}
	// Already met → zero.
	if got := requiredRate(obj, Econ{Now: ec.Now, DoneExamples: 1e6}); got != 0 {
		t.Fatalf("met target must need 0, got %v", got)
	}
	// Past the deadline → zero (nothing to race for).
	if got := requiredRate(obj, Econ{Now: simtime.Time(3 * simtime.Hour)}); got != 0 {
		t.Fatalf("past deadline must need 0, got %v", got)
	}

	cands := []Choice{
		synth(18, 3, 54, 8192, 60),
		synth(18, 6, 108, 8192, 120),
		synth(18, 8, 144, 8192, 140),
	}
	sortChoices(cands)
	// Required ~150 with 2x headroom → nothing clears 300: flat out.
	got := deadlineChoice(cands, obj, ec)
	if got.GPUsUsed != 144 {
		t.Fatalf("a thin margin must run flat out, got %d GPUs", got.GPUsUsed)
	}
	// Comfortably ahead (~50 ex/s required, 100 with headroom): the
	// 108-GPU rung is the cheapest that clears it.
	ahead := Objective{Kind: ObjDeadline, DeadlineAt: obj.DeadlineAt, TargetExamples: 480000}
	got = deadlineChoice(cands, ahead, ec)
	if got.GPUsUsed != 108 {
		t.Fatalf("comfortably ahead should pick the cheapest config clearing ~83 ex/s, got %d GPUs", got.GPUsUsed)
	}
	// Nothing fast enough → flat out.
	rush := Objective{Kind: ObjDeadline, DeadlineAt: obj.DeadlineAt, TargetExamples: 5e6}
	got = deadlineChoice(cands, rush, ec)
	if got.GPUsUsed != 144 {
		t.Fatalf("unreachable deadline must run flat out, got %d GPUs", got.GPUsUsed)
	}
	// Ahead of schedule → min-dollar economics.
	got = deadlineChoice(cands, obj, Econ{Now: ec.Now, DoneExamples: 1e6, PerGPUHour: 4.8, MeanPerGPUHour: 2.4})
	if got.GPUsUsed != 54 {
		t.Fatalf("ahead of schedule in a spike must shrink, got %d GPUs", got.GPUsUsed)
	}
}

// TestBestForMaxThroughputDelegates: the default objective must reuse
// the memoized Best(g) decision — same choice, same caching.
func TestBestForMaxThroughputDelegates(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	want, err := pl.Best(100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.BestFor(100, Objective{}, Econ{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("BestFor(max-throughput) diverged from Best:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestBestForMinDollarUsesFewerGPUsOnSpike: on real sweep candidates,
// a price spike must select a configuration using at most as many
// GPUs as the mean-price selection, and both must stay within the
// fleet.
func TestBestForMinDollarUsesFewerGPUsOnSpike(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	obj := Objective{Kind: ObjMinDollarPerExample}
	atMean, err := pl.BestFor(150, obj, Econ{PerGPUHour: 2.4, MeanPerGPUHour: 2.4})
	if err != nil {
		t.Fatal(err)
	}
	spike, err := pl.BestFor(150, obj, Econ{PerGPUHour: 7.2, MeanPerGPUHour: 2.4})
	if err != nil {
		t.Fatal(err)
	}
	if atMean.GPUsUsed > 150 || spike.GPUsUsed > 150 {
		t.Fatalf("selection exceeded the fleet: %d / %d", atMean.GPUsUsed, spike.GPUsUsed)
	}
	if spike.GPUsUsed >= atMean.GPUsUsed {
		t.Fatalf("3x spike must shed capacity: %d GPUs vs %d at mean price", spike.GPUsUsed, atMean.GPUsUsed)
	}
	if atMean.GPUsUsed < 75 {
		t.Fatalf("mean price should keep most of the fleet, got %d GPUs", atMean.GPUsUsed)
	}
	t.Logf("mean-price pick %dx%d (%d GPUs), spike pick %dx%d (%d GPUs)",
		atMean.P, atMean.D, atMean.GPUsUsed, spike.P, spike.D, spike.GPUsUsed)
}

// TestBestOrHoldMaxThroughputIgnoresPrice: a max-throughput decision
// trades examples, so the economic context does not move it.
func TestBestOrHoldMaxThroughputIgnoresPrice(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	cur, err := pl.Evaluate(18, 4)
	if err != nil {
		t.Fatal(err)
	}
	rm := restartModelFor(in)
	for _, hz := range []Horizon{
		{Until: simtime.Hour},
		{Until: 20 * simtime.Minute, PreemptNext: true},
		{Until: 6 * simtime.Hour, PreemptNext: true, HoldDiscount: 0.3},
	} {
		want, err := pl.BestOrHold(100, cur, true, rm, hz, false, Objective{}, Econ{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.BestOrHold(100, cur, true, rm, hz, false, Objective{}, Econ{PerGPUHour: 2.4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("hz %+v: the price moved a max-throughput decision\nwant %+v\ngot  %+v", hz, want, got)
		}
	}
}

// TestHoldDiscountTightensHolds: the same marginal morph that goes
// through at the legacy ½ discount holds under a burst-calibrated
// (smaller) one.
func TestHoldDiscountTightensHolds(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	pl := NewPlanner(in)
	cur, err := pl.Evaluate(18, 4)
	if err != nil {
		t.Fatal(err)
	}
	rm := restartModelFor(in)
	// Find a horizon where the ½-discounted morph is marginal-but-
	// profitable, then tighten the discount and expect a hold.
	base, err := pl.BestOrHold(100, cur, true, rm, Horizon{Until: 24 * simtime.Hour}, false, Objective{}, Econ{})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Morph || base.GainPerSec <= 0 {
		t.Skip("no profitable morph at this shape; nothing to discount")
	}
	down := base.Costs.Total()
	// At the legacy ½: earned = gain·(until−down)/2 > forfeited ⇒
	// marginal horizon just above down + 2·forfeited/gain.
	forfeit := cur.TotalExPerSec() * down.Seconds()
	marginal := down + simtime.FromSeconds(2.2*forfeit/base.GainPerSec)
	half, err := pl.BestOrHold(100, cur, true, rm, Horizon{Until: marginal, PreemptNext: true}, false, Objective{}, Econ{})
	if err != nil {
		t.Fatal(err)
	}
	if !half.Morph {
		t.Skip("morph not profitable even at ½; widen the margin")
	}
	tight, err := pl.BestOrHold(100, cur, true, rm, Horizon{Until: marginal, PreemptNext: true, HoldDiscount: 0.15}, false, Objective{}, Econ{})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Morph {
		t.Fatal("a burst-calibrated discount must hold where the fixed ½ morphed")
	}
}
