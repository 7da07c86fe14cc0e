package manager

import (
	"reflect"
	"testing"

	"repro/internal/autoconfig"
	"repro/internal/calibrate"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/simtime"
	"repro/internal/spot"
	"repro/internal/testbed"
)

func TestDetectStragglers(t *testing.T) {
	hb := map[int]float64{1: 1.0, 2: 1.02, 3: 0.98, 4: 1.35, 5: 1.01}
	got := DetectStragglers(hb, 1.2)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("stragglers = %v, want [4]", got)
	}
	// Too few reports: no flags.
	if DetectStragglers(map[int]float64{1: 1, 2: 9}, 1.2) != nil {
		t.Fatal("2 reports must not flag")
	}
	// Healthy fleet: no flags.
	if got := DetectStragglers(map[int]float64{1: 1, 2: 1.01, 3: 0.99, 4: 1.02}, 1.2); len(got) != 0 {
		t.Fatalf("healthy fleet flagged: %v", got)
	}
}

func TestDetectStragglersMultiple(t *testing.T) {
	hb := map[int]float64{}
	for i := 0; i < 20; i++ {
		hb[i] = 1.0 + float64(i%3)*0.01
	}
	hb[7] = 1.4
	hb[13] = 1.3
	got := DetectStragglers(hb, 1.2)
	if len(got) != 2 || got[0] != 7 || got[1] != 13 {
		t.Fatalf("stragglers = %v, want [7 13]", got)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.Policy = MorphPolicy(9)
	if bad.Validate() == nil {
		t.Fatal("unknown policy must fail")
	}
}

func managerFor(t *testing.T) *Manager {
	return managerWith(t, DefaultOptions(), false)
}

// managerWith builds a manager with explicit options and, when tight
// is set, a Planner capped at 2 cost entries and 1 decision per
// generation.
func managerWith(t *testing.T, opts Options, tight bool) *Manager {
	t.Helper()
	cluster := hw.SpotCluster(hw.NC6v3, 150)
	tb := testbed.New(cluster, 31)
	spec := model.GPT2XL2B()
	params, err := calibrate.Run(spec, tb, calibrate.Options{
		MicroSizes:  []int{4, 8},
		GPUsPerNode: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := model.FindCutPoints(spec, 53)
	if err != nil {
		t.Fatal(err)
	}
	in := autoconfig.Inputs{
		Spec:        spec,
		Cuts:        cuts,
		Params:      params,
		GPUMem:      16 << 30,
		MTotal:      8192,
		GPUsPerNode: 1,
	}
	if tight {
		return NewWithPlanner(in, tb, autoconfig.NewPlannerCapped(in, 2, 1), opts, 77)
	}
	return newManager(in, tb, opts, 77)
}

// newManager builds a manager with its own Planner for in.
func newManager(in autoconfig.Inputs, tb *testbed.Testbed, opts Options, seed int64) *Manager {
	return NewWithPlanner(in, tb, autoconfig.NewPlanner(in), opts, seed)
}

func TestRunTimelineMorphsWithFleet(t *testing.T) {
	mg := managerFor(t)
	mk := spot.NewMarket(1, 120, 55)
	events := spot.EventTrace(mk, 150, 12*simtime.Hour, 10*simtime.Minute)
	points, stats, err := mg.RunTimeline(events, 12*simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no timeline points")
	}
	if stats.MiniBatches <= 0 || stats.Examples <= 0 {
		t.Fatalf("no training happened: %+v", stats)
	}
	if stats.Morphs == 0 {
		t.Fatal("a 12-hour spot run must morph at least once")
	}
	if stats.Preemptions == 0 {
		t.Fatal("trace should contain preemptions")
	}
	if stats.Checkpoints == 0 {
		t.Fatal("continuous checkpointing never ran")
	}
	// Time monotone; GPUs never negative.
	for i := 1; i < len(points); i++ {
		if points[i].At < points[i-1].At {
			t.Fatal("timeline must be monotone")
		}
		if points[i].GPUs < 0 {
			t.Fatal("negative GPUs")
		}
	}
}

func TestTimelinePerGPUStability(t *testing.T) {
	// Figure 8's takeaway: total throughput swings with the fleet
	// (up to 5x) while per-GPU throughput stays within a much
	// tighter band (~15%). Check the per-GPU spread across morphs is
	// far smaller than the total spread.
	mg := managerFor(t)
	mk := spot.NewMarket(1, 120, 99)
	events := spot.EventTrace(mk, 150, 24*simtime.Hour, 10*simtime.Minute)
	points, _, err := mg.RunTimeline(events, 24*simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var totMin, totMax, perMin, perMax float64
	n := 0
	for _, p := range points {
		if p.ExPerSec <= 0 || p.GPUs <= 0 || p.Config.GPUsUsed == 0 {
			continue
		}
		per := p.ExPerSec / float64(p.Config.GPUsUsed)
		if n == 0 {
			totMin, totMax, perMin, perMax = p.ExPerSec, p.ExPerSec, per, per
		}
		n++
		totMin = min(totMin, p.ExPerSec)
		totMax = max(totMax, p.ExPerSec)
		perMin = min(perMin, per)
		perMax = max(perMax, per)
	}
	if n < 3 {
		t.Skip("not enough morph segments to compare")
	}
	totSpread := totMax / totMin
	perSpread := perMax / perMin
	if perSpread >= totSpread {
		t.Fatalf("per-GPU spread %.2f must be tighter than total spread %.2f", perSpread, totSpread)
	}
	if perSpread > 1.8 {
		t.Fatalf("per-GPU throughput spread %.2f too wide (paper: ~15%%)", perSpread)
	}
}

func TestPreemptionRollsBackToCheckpoint(t *testing.T) {
	mg := managerFor(t)
	// Hand-built trace: a stable fleet, then one preemption.
	var events []spot.Event
	for i := 0; i < 72; i++ {
		events = append(events, spot.Event{At: 0, Kind: spot.Alloc, VM: i, GPUs: 1})
	}
	events = append(events, spot.Event{At: simtime.Time(4 * simtime.Hour), Kind: spot.Preempt, VM: 3, GPUs: 1})
	_, stats, err := mg.RunTimeline(events, 8*simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Preemptions != 1 {
		t.Fatalf("preemptions = %d", stats.Preemptions)
	}
	if stats.LostMiniBatches < 0 || stats.LostMiniBatches >= checkpointEvery {
		t.Fatalf("lost work %d outside [0, checkpointEvery)", stats.LostMiniBatches)
	}
	if stats.Examples <= 0 {
		t.Fatal("training made no progress")
	}
}

// TestTimelineCappedPlannerBitIdentical is the eviction golden test at
// system level: replaying a 24-hour morphing timeline through a
// Planner with pathologically tight cache bounds must reproduce the
// default-planner timeline bit for bit — eviction may only cost
// recomputation, never change a decision.
func TestTimelineCappedPlannerBitIdentical(t *testing.T) {
	run := func(tight bool) ([]TimelinePoint, Stats, autoconfig.PlannerStats) {
		mg := managerWith(t, DefaultOptions(), tight)
		mk := spot.NewMarket(1, 120, 99)
		events := spot.EventTrace(mk, 150, 24*simtime.Hour, 10*simtime.Minute)
		points, stats, err := mg.RunTimeline(events, 24*simtime.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return points, stats, mg.Plan.Stats()
	}
	wantPoints, wantStats, _ := run(false)
	gotPoints, gotStats, ts := run(true)
	if gotStats != wantStats {
		t.Fatalf("capped planner changed stats:\nwant %+v\ngot  %+v", wantStats, gotStats)
	}
	if len(gotPoints) != len(wantPoints) {
		t.Fatalf("timeline lengths differ: %d vs %d", len(wantPoints), len(gotPoints))
	}
	for i := range wantPoints {
		if !reflect.DeepEqual(wantPoints[i], gotPoints[i]) {
			t.Fatalf("point %d diverged:\nwant %+v\ngot  %+v", i, wantPoints[i], gotPoints[i])
		}
	}
	if ts.CostEvictions == 0 || ts.DecisionEvictions == 0 {
		t.Fatalf("tight caps must rotate across a 24h timeline: %+v", ts)
	}
}

// TestPolicyDowntimeOrdering replays one trace under all three pricing
// policies: modeled pricing must undercut the flat 4-minute constant
// on this small model, and morph-or-hold must hold at least once and
// never reconfigure longer than always-morphing.
func TestPolicyDowntimeOrdering(t *testing.T) {
	run := func(p MorphPolicy) Stats {
		opts := DefaultOptions()
		opts.Policy = p
		mg := managerWith(t, opts, false)
		mk := spot.NewMarket(1, 120, 55)
		events := spot.EventTrace(mk, 150, 12*simtime.Hour, 10*simtime.Minute)
		_, stats, err := mg.RunTimeline(events, 12*simtime.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	constant := run(PolicyConstant)
	modeled := run(PolicyModeled)
	hold := run(PolicyMorphOrHold)
	if constant.Holds != 0 || modeled.Holds != 0 {
		t.Fatalf("only morph-or-hold may hold: constant %d, modeled %d", constant.Holds, modeled.Holds)
	}
	if hold.Holds == 0 {
		t.Fatal("a 12h spot trace must produce at least one hold decision")
	}
	if modeled.MorphDowntime >= constant.MorphDowntime {
		t.Fatalf("modeled reconfiguration %v must undercut the 4-minute constant's %v",
			modeled.MorphDowntime, constant.MorphDowntime)
	}
	if hold.MorphDowntime >= modeled.MorphDowntime {
		t.Fatalf("morph-or-hold %v must undercut always-morph %v", hold.MorphDowntime, modeled.MorphDowntime)
	}
	for _, s := range []Stats{constant, modeled, hold} {
		if s.MorphDowntime > s.Downtime {
			t.Fatalf("reconfiguration downtime %v exceeds total %v", s.MorphDowntime, s.Downtime)
		}
	}
}

func TestTimelineDeterminism(t *testing.T) {
	run := func() Stats {
		mg := managerFor(t)
		mk := spot.NewMarket(1, 120, 5)
		events := spot.EventTrace(mk, 140, 6*simtime.Hour, 10*simtime.Minute)
		_, stats, err := mg.RunTimeline(events, 6*simtime.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seeds must give identical stats:\n%+v\n%+v", a, b)
	}
}
