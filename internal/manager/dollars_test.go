package manager

import (
	"reflect"
	"testing"

	"repro/internal/autoconfig"
	"repro/internal/price"
	"repro/internal/simtime"
	"repro/internal/spot"
)

// volatileCurve is the non-constant price curve the dollar golden
// tests run under: mean-reverting around $2.40/GPU·h with pronounced
// excursions, deterministic under its seed.
func volatileCurve(t *testing.T, horizon simtime.Duration) *price.Curve {
	t.Helper()
	c, err := price.MeanReverting(price.MROptions{
		Mean: 2.40, Vol: 0.18, Reversion: 0.12, Horizon: horizon,
	}, 61)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// scrubDollars zeroes the dollar-accounting fields so a priced run
// can be compared against an unpriced one field-for-field.
func scrubDollars(s Stats) Stats {
	s.DollarsSpent, s.DollarsCompute, s.DollarsReconfig, s.DollarsIdle = 0, 0, 0, 0
	return s
}

// TestConstantCurveMaxThroughputBitIdentical is the zero-behavior
// acceptance test: attaching a price curve under the default
// max-throughput objective must only *account* — every decision,
// event and counter matches the unpriced run bit for bit, and the
// dollar fields are the one addition.
func TestConstantCurveMaxThroughputBitIdentical(t *testing.T) {
	mk := spot.NewMarket(1, 120, 55)
	horizon := 12 * simtime.Hour
	events := spot.EventTrace(mk, 150, horizon, 10*simtime.Minute)

	run := func(curve *price.Curve) ([]TimelinePoint, Stats) {
		opts := DefaultOptions()
		opts.Prices = curve
		mg := managerWith(t, opts, false)
		points, stats, err := mg.RunTimeline(events, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return points, stats
	}
	freePoints, freeStats := run(nil)
	paidPoints, paidStats := run(price.Constant(2.40))

	if scrubDollars(paidStats) != freeStats {
		t.Fatalf("constant curve changed behavior:\nfree %+v\npaid %+v", freeStats, scrubDollars(paidStats))
	}
	if len(paidPoints) != len(freePoints) {
		t.Fatalf("point counts differ: %d vs %d", len(freePoints), len(paidPoints))
	}
	for i := range freePoints {
		p := paidPoints[i]
		if p.DollarsSpent <= 0 && p.At > 0 {
			t.Fatalf("point %d carries no cumulative spend: %+v", i, p)
		}
		p.DollarsSpent = 0
		if !reflect.DeepEqual(p, freePoints[i]) {
			t.Fatalf("point %d diverged:\nfree %+v\npaid %+v", i, freePoints[i], p)
		}
	}
	if paidStats.DollarsSpent <= 0 {
		t.Fatal("no dollars accounted")
	}
	if got := paidStats.DollarsCompute + paidStats.DollarsReconfig + paidStats.DollarsIdle; got != paidStats.DollarsSpent {
		t.Fatalf("buckets %v don't sum to total %v", got, paidStats.DollarsSpent)
	}
	if paidStats.VMsReleased != 0 {
		t.Fatal("max-throughput must never release VMs")
	}
	if paidStats.DollarsPerExample() <= 0 {
		t.Fatal("no $/example")
	}
	// Sanity: total spend is bounded by pricing the full target fleet
	// for the whole horizon.
	ceiling := 2.40 * 150 * horizon.Seconds() / 3600
	if paidStats.DollarsSpent > ceiling {
		t.Fatalf("spend %v exceeds the full-fleet ceiling %v", paidStats.DollarsSpent, ceiling)
	}
}

// TestMinDollarSpendsLessPerExample is the tentpole acceptance golden:
// on the same trace under a non-constant curve, the min-$/example
// objective must realize strictly cheaper examples than max
// throughput — by releasing idle capacity, shedding marginal replicas
// through price spikes, and holding when a morph's dollars don't pay.
func TestMinDollarSpendsLessPerExample(t *testing.T) {
	mk := spot.NewMarket(1, 120, 55)
	horizon := 24 * simtime.Hour
	events := spot.EventTrace(mk, 150, horizon, 10*simtime.Minute)
	curve := volatileCurve(t, horizon)

	run := func(obj autoconfig.Objective) Stats {
		opts := DefaultOptions()
		opts.Prices = curve
		opts.Objective = obj
		mg := managerWith(t, opts, false)
		_, stats, err := mg.RunTimeline(events, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	thru := run(autoconfig.Objective{Kind: autoconfig.ObjMaxThroughput})
	dollar := run(autoconfig.Objective{Kind: autoconfig.ObjMinDollarPerExample})

	t.Logf("max-throughput: %.2fM ex, $%.0f, $%.2f/kex, released %d",
		thru.Examples/1e6, thru.DollarsSpent, 1000*thru.DollarsPerExample(), thru.VMsReleased)
	t.Logf("min-dollar:     %.2fM ex, $%.0f, $%.2f/kex, released %d",
		dollar.Examples/1e6, dollar.DollarsSpent, 1000*dollar.DollarsPerExample(), dollar.VMsReleased)

	if dollar.Examples <= 0 || thru.Examples <= 0 {
		t.Fatal("a run made no progress")
	}
	if dollar.DollarsPerExample() >= thru.DollarsPerExample() {
		t.Fatalf("min-dollar $/ex %.6g must undercut max-throughput %.6g",
			dollar.DollarsPerExample(), thru.DollarsPerExample())
	}
	if dollar.VMsReleased == 0 {
		t.Fatal("the dollar objective never shrank the fleet")
	}
	if thru.VMsReleased != 0 {
		t.Fatal("max-throughput must not release")
	}
	if dollar.DollarsSpent >= thru.DollarsSpent {
		t.Fatalf("min-dollar total $%.0f should undercut max-throughput $%.0f", dollar.DollarsSpent, thru.DollarsSpent)
	}
}

// TestDeadlineObjectiveMeetsTargetCheaper: a deadline at a reachable
// target must be met while spending fewer dollars than flat-out
// training — ahead of schedule, the manager buys cheaper examples.
func TestDeadlineObjectiveMeetsTargetCheaper(t *testing.T) {
	mk := spot.NewMarket(1, 120, 55)
	horizon := 12 * simtime.Hour
	events := spot.EventTrace(mk, 150, horizon, 10*simtime.Minute)
	curve := volatileCurve(t, horizon)

	run := func(obj autoconfig.Objective) Stats {
		opts := DefaultOptions()
		opts.Prices = curve
		opts.Objective = obj
		mg := managerWith(t, opts, false)
		_, stats, err := mg.RunTimeline(events, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	thru := run(autoconfig.Objective{Kind: autoconfig.ObjMaxThroughput})
	target := 0.5 * thru.Examples
	dead := run(autoconfig.Objective{
		Kind:           autoconfig.ObjDeadline,
		DeadlineAt:     simtime.Time(horizon),
		TargetExamples: target,
	})
	t.Logf("deadline: %.2fM ex (target %.2fM), $%.0f vs flat-out $%.0f",
		dead.Examples/1e6, target/1e6, dead.DollarsSpent, thru.DollarsSpent)
	if dead.Examples < target {
		t.Fatalf("deadline missed: %.0f < %.0f", dead.Examples, target)
	}
	if dead.DollarsSpent >= thru.DollarsSpent {
		t.Fatalf("deadline run spent $%.0f, no cheaper than flat-out $%.0f", dead.DollarsSpent, thru.DollarsSpent)
	}
}

// TestHoldDiscountCalibrationDirection goldens the calibrated
// preempt-next discount (the ROADMAP item replacing the fixed ½): on
// a preemption-dominated trace the hazard ratio prices the
// post-downtime window below ½, so hold decisions can only become
// more frequent, never less.
func TestHoldDiscountCalibrationDirection(t *testing.T) {
	// A tight market: the pool is smaller than the target, so
	// preemptions cluster while allocations trickle — gap_preempt
	// well under gap_alloc.
	mk := spot.NewMarket(1, 90, 55)
	horizon := 24 * simtime.Hour
	events := spot.EventTrace(mk, 150, horizon, 10*simtime.Minute)

	// legacyHolds is this trace's hold count under the fixed ½
	// discount, recorded at commit 82a6362, the last to carry a switch
	// back to it.
	const legacyHolds = 16
	mg := managerWith(t, DefaultOptions(), false)
	_, stats, err := mg.RunTimeline(events, horizon)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("holds: legacy ½ %d, calibrated %d", legacyHolds, stats.Holds)
	if stats.Holds < legacyHolds {
		t.Fatalf("calibrated discount reduced holds on a bursty trace: %d < %d", stats.Holds, legacyHolds)
	}
	if stats.Holds == 0 {
		t.Fatal("bursty trace produced no holds at all")
	}
}

// TestDegradingVMCaughtMidSegment is the fail-stutter fix scenario: a
// VM that starts stuttering in the middle of a stable segment must be
// flagged by a periodic heartbeat check, excluded, and the mini-batch
// time re-measured — before the next fleet event, not at it.
func TestDegradingVMCaughtMidSegment(t *testing.T) {
	// Stable hand-built fleet: 72 VMs at t=0, next fleet event at 6h.
	var events []spot.Event
	for i := 0; i < 72; i++ {
		events = append(events, spot.Event{At: 0, Kind: spot.Alloc, VM: i, GPUs: 1})
	}
	events = append(events, spot.Event{At: simtime.Time(6 * simtime.Hour), Kind: spot.Preempt, VM: 5, GPUs: 1})
	horizon := 8 * simtime.Hour
	degradeAt := simtime.Time(2 * simtime.Hour)

	run := func(degrade bool) ([]TimelinePoint, Stats) {
		mg := managerWith(t, DefaultOptions(), false)
		if degrade {
			mg.Degrade = []Degradation{{VM: 3, At: degradeAt, Factor: 1.5}}
		}
		points, stats, err := mg.RunTimeline(events, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return points, stats
	}
	basePoints, baseStats := run(false)
	degPoints, degStats := run(true)

	morphsBetween := func(points []TimelinePoint) []TimelinePoint {
		var out []TimelinePoint
		for _, p := range points {
			if p.At > degradeAt && p.At < simtime.Time(6*simtime.Hour) &&
				(p.Event == "morph" || p.Event == "p") {
				out = append(out, p)
			}
		}
		return out
	}
	if extra := morphsBetween(basePoints); len(extra) != 0 {
		t.Fatalf("healthy run reconfigured mid-segment: %+v", extra)
	}
	caught := morphsBetween(degPoints)
	if len(caught) == 0 {
		t.Fatal("degrading VM not caught before the next fleet event")
	}
	// Caught within roughly one heartbeat interval of the onset.
	limit := degradeAt.Add(2 * DefaultOptions().HeartbeatEvery)
	if caught[0].At > limit {
		t.Fatalf("caught at %v, later than one heartbeat interval after onset (%v)", caught[0].At, limit)
	}
	if degStats.StragglersExcluded != baseStats.StragglersExcluded+1 {
		t.Fatalf("exclusions: %d with degradation vs %d without, want +1",
			degStats.StragglersExcluded, baseStats.StragglersExcluded)
	}
}

// TestHeartbeatDisabledMatchesMorphSegmentsOnly: HeartbeatEvery = 0
// restores the legacy morph-segments-only detection — a degrading VM
// survives until the next fleet event.
func TestHeartbeatDisabledMatchesMorphSegmentsOnly(t *testing.T) {
	var events []spot.Event
	for i := 0; i < 72; i++ {
		events = append(events, spot.Event{At: 0, Kind: spot.Alloc, VM: i, GPUs: 1})
	}
	events = append(events, spot.Event{At: simtime.Time(6 * simtime.Hour), Kind: spot.Preempt, VM: 5, GPUs: 1})
	opts := DefaultOptions()
	opts.HeartbeatEvery = 0
	mg := managerWith(t, opts, false)
	mg.Degrade = []Degradation{{VM: 3, At: simtime.Time(2 * simtime.Hour), Factor: 1.5}}
	points, _, err := mg.RunTimeline(events, 8*simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.At > simtime.Time(2*simtime.Hour) && p.At < simtime.Time(6*simtime.Hour) &&
			(p.Event == "morph" || p.Event == "p") {
			t.Fatalf("disabled heartbeats still caught the VM mid-segment: %+v", p)
		}
	}
}

// TestValidateDollarOptions pins the new option checks.
func TestValidateDollarOptions(t *testing.T) {
	bad := DefaultOptions()
	bad.HeartbeatEvery = -simtime.Minute
	if bad.Validate() == nil {
		t.Fatal("negative HeartbeatEvery must fail")
	}
	bad = DefaultOptions()
	bad.Objective = autoconfig.Objective{Kind: autoconfig.ObjMinDollarPerExample}
	if bad.Validate() == nil {
		t.Fatal("dollar objective without prices must fail")
	}
	bad.Prices = price.Constant(2)
	if err := bad.Validate(); err != nil {
		t.Fatal(err)
	}
	bad = DefaultOptions()
	bad.Objective = autoconfig.Objective{Kind: autoconfig.ObjDeadline}
	bad.Prices = price.Constant(2)
	if bad.Validate() == nil {
		t.Fatal("deadline objective without a target must fail")
	}
}
