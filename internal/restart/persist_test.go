package restart_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/autoconfig"
	"repro/internal/price"
	"repro/internal/restart"
	"repro/internal/simtime"
)

// chargedMeter builds a meter with full-precision float accumulators
// in every bucket, priced against a seeded stochastic curve.
func chargedMeter(t *testing.T) *price.Meter {
	t.Helper()
	curve, err := price.MeanReverting(price.MROptions{
		Mean: 2.9, Vol: 0.3, Reversion: 0.25, Horizon: 24 * simtime.Hour,
	}, 17)
	if err != nil {
		t.Fatal(err)
	}
	m := price.NewMeter(curve)
	at := simtime.Time(0)
	for i := 0; i < 41; i++ {
		next := at.Add(17*simtime.Minute + simtime.Duration(i)*11*simtime.Second)
		m.Charge(price.Bucket(i%int(price.NumBuckets)), at, next, 60+i%13)
		at = next
	}
	return m
}

// TestSectionsRoundTripMeterBitIdentical is the warm-resume
// acceptance test for cost accounting: the meter saved next to the
// planner snapshot must restore with every cumulative dollar
// accumulator bit-identical — a restarted manager continues the same
// bill, not a rounded copy of it.
func TestSectionsRoundTripMeterBitIdentical(t *testing.T) {
	in, pl := plannerFor(t)
	if _, err := pl.Best(72); err != nil {
		t.Fatal(err)
	}
	meter := chargedMeter(t)
	dir := t.TempDir()
	if err := restart.SaveSections(dir, restart.Sections{
		restart.SectionPlanner: pl,
		restart.SectionMeter:   meter,
	}); err != nil {
		t.Fatal(err)
	}

	freshPl := autoconfig.NewPlanner(in)
	freshMeter := price.NewMeter(meter.Curve())
	found, err := restart.LoadSections(dir, restart.Sections{
		restart.SectionPlanner: freshPl,
		restart.SectionMeter:   freshMeter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found[restart.SectionPlanner] || !found[restart.SectionMeter] {
		t.Fatalf("sections not found: %v", found)
	}
	for b := price.Bucket(0); b < price.NumBuckets; b++ {
		if freshMeter.InBucket(b) != meter.InBucket(b) {
			t.Fatalf("%v bucket not bit-identical: %v vs %v", b, freshMeter.InBucket(b), meter.InBucket(b))
		}
	}
	if freshMeter.Total() != meter.Total() {
		t.Fatalf("DollarsSpent not bit-identical: %v vs %v", freshMeter.Total(), meter.Total())
	}
	// The planner section warmed too.
	if s := freshPl.Stats(); s.Sweeps != 0 {
		t.Fatalf("planner section did not warm: %+v", s)
	}
	if _, err := freshPl.Best(72); err != nil {
		t.Fatal(err)
	}
	if s := freshPl.Stats(); s.CostComputes != 0 {
		t.Fatalf("warm planner recomputed: %+v", s)
	}
}

// TestLoadSectionsLegacyFile keeps old state files loading: a file
// written before cost accounting existed is a bare planner snapshot
// with no meter section — the planner must warm from it and the
// meter must be left untouched, not errored on.
func TestLoadSectionsLegacyFile(t *testing.T) {
	in, pl := plannerFor(t)
	if _, err := pl.Best(72); err != nil {
		t.Fatal(err)
	}
	// Write the pre-sectioned format: the planner snapshot at top
	// level, exactly what the pre-sectioned writer produced.
	data, err := pl.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, restart.StateFile), data, 0o644); err != nil {
		t.Fatal(err)
	}

	freshPl := autoconfig.NewPlanner(in)
	meter := price.NewMeter(price.Constant(2))
	found, err := restart.LoadSections(dir, restart.Sections{
		restart.SectionPlanner: freshPl,
		restart.SectionMeter:   meter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found[restart.SectionPlanner] {
		t.Fatal("legacy planner snapshot must load")
	}
	if found[restart.SectionMeter] {
		t.Fatal("legacy file has no meter section")
	}
	if meter.Total() != 0 {
		t.Fatalf("meter must stay untouched, got %v", meter.Total())
	}
	if _, err := freshPl.Best(72); err != nil {
		t.Fatal(err)
	}
	if s := freshPl.Stats(); s.CostComputes != 0 {
		t.Fatalf("legacy planner snapshot did not warm: %+v", s)
	}
}

// TestLoadSectionsPartialFile: a sectioned file missing a requested
// section restores what it has (forward compatibility when new
// sections appear).
func TestLoadSectionsPartialFile(t *testing.T) {
	_, pl := plannerFor(t)
	if _, err := pl.Best(72); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := restart.SaveSections(dir, restart.Sections{restart.SectionPlanner: pl}); err != nil {
		t.Fatal(err)
	}
	meter := price.NewMeter(price.Constant(2))
	found, err := restart.LoadSections(dir, restart.Sections{restart.SectionMeter: meter})
	if err != nil {
		t.Fatal(err)
	}
	if found[restart.SectionMeter] {
		t.Fatal("meter section absent from the file")
	}
	if meter.Total() != 0 {
		t.Fatal("absent section must leave the carrier untouched")
	}
}
