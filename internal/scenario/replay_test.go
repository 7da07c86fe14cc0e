package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/price"
	"repro/internal/restart"
	"repro/scenarios"
)

func mustParse(t *testing.T, doc string) *Scenario {
	t.Helper()
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runCommitted parses and runs one committed single-job scenario file.
func runCommitted(t *testing.T, file string) *Result {
	t.Helper()
	data, err := scenarios.FS.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReplayBitIdentical is the core determinism property: the same
// scenario file replays to a bit-identical timeline, stats and report
// bytes. CI runs this under -race as well.
func TestReplayBitIdentical(t *testing.T) {
	a, err := Run(mustParse(t, miniScenario), "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mustParse(t, miniScenario), "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("stats differ across replays:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Errorf("timelines differ across replays")
	}
	ja, err := a.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Errorf("report bytes differ across replays:\n%s\n%s", ja, jb)
	}
	if a.Stats.Preemptions == 0 || a.Stats.MiniBatches == 0 {
		t.Errorf("degenerate run: %+v", a.Stats)
	}
	if len(a.Report.Violations) != 0 {
		t.Errorf("invariant violations: %v", a.Report.Violations)
	}
}

// TestCompiledRunOnce pins the one-run contract of a Compiled: the
// first run consumes the compiled testbed's RNG stream, so a second
// Run of the same Compiled would diverge from the first. It must fail
// instead, naming the scenario, while a fresh Compile replays.
func TestCompiledRunOnce(t *testing.T) {
	c, err := Compile(mustParse(t, miniScenario))
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Run("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(""); err == nil || !strings.Contains(err.Error(), c.Scenario.Name) {
		t.Fatalf("second Run of one Compiled: err = %v, want an error naming %q", err, c.Scenario.Name)
	}
	again, err := Run(mustParse(t, miniScenario), "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Stats, again.Stats) {
		t.Errorf("a fresh compile does not replay the first run:\n%+v\n%+v", first.Stats, again.Stats)
	}
}

// Different seeds must actually change the run — a chaos harness whose
// seed does nothing tests nothing.
func TestDifferentSeedsDiffer(t *testing.T) {
	base, err := Run(mustParse(t, miniScenario), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, swap := range []struct{ old, new string }{
		{"seed: 21", "seed: 22"}, // chaos seed
		{"seed: 12", "seed: 15"}, // market seed
	} {
		doc := strings.Replace(miniScenario, swap.old, swap.new, 1)
		if doc == miniScenario {
			t.Fatalf("replacement %q not found", swap.old)
		}
		res, err := Run(mustParse(t, doc), "")
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(res.Stats, base.Stats) {
			t.Errorf("seed change %q → %q left stats identical", swap.old, swap.new)
		}
	}
}

// TestKillResumeState checks the -state discipline: after a run, the
// persisted planner and meter reload bit-exactly, and a resumed run
// continues the cumulative bill instead of restarting it.
func TestKillResumeState(t *testing.T) {
	dir := t.TempDir()
	sc := mustParse(t, miniScenario)
	first, err := Run(sc, dir)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, restart.StateFile))
	if err != nil {
		t.Fatal(err)
	}

	// Restore into fresh carriers and re-save: the round trip must be
	// byte-identical (planner and meter restore bit-exactly).
	c2, err := Compile(mustParse(t, miniScenario))
	if err != nil {
		t.Fatal(err)
	}
	meter := price.NewMeter(c2.Opts.Prices)
	sections := restart.Sections{
		restart.SectionPlanner: c2.Job.Planner(),
		restart.SectionMeter:   meter,
	}
	found, err := restart.LoadSections(dir, sections)
	if err != nil {
		t.Fatal(err)
	}
	if !found[restart.SectionPlanner] || !found[restart.SectionMeter] {
		t.Fatalf("missing sections: %v", found)
	}
	dir2 := t.TempDir()
	if err := restart.SaveSections(dir2, sections); err != nil {
		t.Fatal(err)
	}
	resaved, err := os.ReadFile(filepath.Join(dir2, restart.StateFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, resaved) {
		t.Error("state round trip is not byte-identical")
	}
	if got, want := meter.Total(), first.Stats.DollarsSpent; !close9(got, want) {
		t.Errorf("restored meter total %.9f, want first run's bill %.9f", got, want)
	}

	// A resumed run on the same state dir continues the bill: the
	// meter on disk afterwards carries both runs, while the resumed
	// run's own stats stay base-excluded.
	second, err := c2.Run(dir)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	data, err := os.ReadFile(filepath.Join(dir, restart.StateFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	cum := price.NewMeter(c2.Opts.Prices)
	if err := cum.ImportState(doc[restart.SectionMeter]); err != nil {
		t.Fatal(err)
	}
	if got, want := cum.Total(), first.Stats.DollarsSpent+second.Stats.DollarsSpent; !close9(got, want) {
		t.Errorf("cumulative meter %.9f, want %.9f (both runs)", got, want)
	}
	// Warm planner caches must not change decisions: the resumed
	// replay matches the cold one bit-identically — except the three
	// dollar-bucket splits, which accumulate on the warm meter's
	// nonzero base and so differ in the last ulp ((base+x)-base ≠ x).
	// Those are compared with tolerance; everything else exactly.
	fs, ss := first.Stats, second.Stats
	for _, pair := range [][2]float64{
		{fs.DollarsCompute, ss.DollarsCompute},
		{fs.DollarsReconfig, ss.DollarsReconfig},
		{fs.DollarsIdle, ss.DollarsIdle},
	} {
		if !close9(pair[0], pair[1]) {
			t.Errorf("warm-state dollar bucket diverged: %.12f vs %.12f", pair[0], pair[1])
		}
	}
	fs.DollarsCompute, fs.DollarsReconfig, fs.DollarsIdle = 0, 0, 0
	ss.DollarsCompute, ss.DollarsReconfig, ss.DollarsIdle = 0, 0, 0
	if !reflect.DeepEqual(fs, ss) {
		t.Errorf("warm-state replay diverged:\n%+v\n%+v", fs, ss)
	}
}

func close9(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}

// TestChaosStress runs the committed ≥1000-VM chaos soak twice: it
// must complete with a structured report, zero invariant violations,
// exercise every chaos stream, and replay bit-identically (stats —
// the full point-by-point comparison is covered by the cheaper replay
// test above).
func TestChaosStress(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos-stress soak skipped in -short")
	}
	res := runCommitted(t, "chaos-stress.yaml")
	s := res.Stats
	if s.Allocations < 1000 {
		t.Errorf("chaos-stress should churn ≥1000 VMs, got %d allocations", s.Allocations)
	}
	if s.Preemptions < 100 || s.MiniBatches == 0 || s.DollarsSpent <= 0 {
		t.Errorf("degenerate soak: %+v", s)
	}
	if res.Compiled.ScriptEvents == 0 {
		t.Error("chaos expansion produced no events")
	}
	if len(res.Report.Violations) != 0 {
		t.Errorf("invariant violations: %v", res.Report.Violations)
	}
	if _, err := res.Report.JSON(); err != nil {
		t.Fatal(err)
	}
	replay := runCommitted(t, "chaos-stress.yaml")
	if !reflect.DeepEqual(res.Stats, replay.Stats) {
		t.Errorf("chaos-stress replay diverged:\n%+v\n%+v", res.Stats, replay.Stats)
	}
}

// The committed scenario files must all parse and compile-validate —
// a smoke over everything in scenarios/, so a file edit cannot land
// broken.
func TestCommittedScenariosParse(t *testing.T) {
	entries, err := scenarios.FS.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 4 {
		t.Fatalf("expected ≥4 committed scenarios, found %d", len(entries))
	}
	for _, e := range entries {
		data, err := scenarios.FS.ReadFile(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(data); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
}
