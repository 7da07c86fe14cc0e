package core

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/simtime"
	"repro/internal/spot"
)

func TestNewJobValidation(t *testing.T) {
	if _, err := NewJob(nil, hw.SpotCluster(hw.NC6v3, 8), 64, 1); err == nil {
		t.Fatal("nil spec must fail")
	}
	if _, err := NewJob(model.BERTLarge(), hw.SpotCluster(hw.NC6v3, 8), 0, 1); err == nil {
		t.Fatal("batch 0 must fail")
	}
}

func TestJobEndToEnd(t *testing.T) {
	job, err := NewJob(model.GPT2XL2B(), hw.SpotCluster(hw.NC6v3, 100), 8192, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.CutPoints()) == 0 || job.Calibration() == nil {
		t.Fatal("setup incomplete")
	}
	best, err := job.BestConfig(100)
	if err != nil {
		t.Fatal(err)
	}
	if best.P*best.D > 100 {
		t.Fatalf("%v over-subscribes", best)
	}
	est, err := job.Estimate(best)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := job.Measure(best)
	if err != nil {
		t.Fatal(err)
	}
	// Estimate and measurement agree within Table 7's band (plus
	// testbed heterogeneity).
	ratio := est.Seconds() / ms.MiniBatchTime.Seconds()
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("estimate %v vs measured %v: ratio %.3f", est, ms.MiniBatchTime, ratio)
	}
	// Comparison policy path works.
	if _, err := job.MeasureWithPolicy(best, schedule.DeepSpeedP); err != nil {
		t.Fatal(err)
	}
	// Explicit shape path works.
	c, err := job.Configure(9, 11)
	if err != nil {
		t.Fatal(err)
	}
	if c.P != 9 || c.D != 11 {
		t.Fatalf("Configure returned %v", c)
	}
}

// TestJobSpotMarket drives a manager from the Job's inputs, testbed
// and lifetime planner over a spot-market trace, the wiring the
// scenario compiler uses.
func TestJobSpotMarket(t *testing.T) {
	job, err := NewJob(model.GPT2XL2B(), hw.SpotCluster(hw.NC6v3, 150), 8192, 5)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 8 * simtime.Hour
	events := spot.EventTrace(spot.NewMarket(1, 120, 11), 150, horizon, 10*simtime.Minute)
	mg := manager.NewWithPlanner(job.Inputs(), job.Testbed(), job.Planner(), manager.DefaultOptions(), 13)
	points, stats, err := mg.RunTimeline(events, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 || stats.MiniBatches == 0 {
		t.Fatal("spot run made no progress")
	}
}
