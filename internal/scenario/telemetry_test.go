package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/manager"
	"repro/scenarios"
)

// TestTelemetryReplayBitIdentical extends the core determinism
// property to the telemetry layer: a scenario with sampling and SLO
// monitors enabled replays to bit-identical report bytes AND
// bit-identical series export bytes. Monitors observe online, so a
// nondeterministic sample order would show up here.
func TestTelemetryReplayBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario telemetry replay skipped in -short")
	}
	run := func() (rep, csv []byte) {
		t.Helper()
		data, err := scenarios.FS.ReadFile("region-failover.yaml")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(mustParse(t, string(data)))
		if err != nil {
			t.Fatal(err)
		}
		if c.Series == nil {
			t.Fatal("region-failover declares telemetry but compiled without a series set")
		}
		res, err := c.Run("")
		if err != nil {
			t.Fatal(err)
		}
		rep, err = res.Report.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Report.SLOs) != 4 {
			t.Fatalf("expected 4 SLO results, got %d", len(res.Report.SLOs))
		}
		for _, r := range res.Report.SLOs {
			if r.Samples == 0 {
				t.Errorf("slo %s observed no samples", r.Name)
			}
		}
		return rep, c.Series.CSV()
	}
	rep1, csv1 := run()
	rep2, csv2 := run()
	if !bytes.Equal(rep1, rep2) {
		t.Error("telemetry-enabled report bytes differ across replays")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Error("series CSV bytes differ across replays")
	}
	if len(csv1) == 0 {
		t.Error("empty series export")
	}
}

// TestSLOBreachEnforced pins the committed breach fixture: the
// enforce-mode rule must breach, land in the report's slo section,
// and surface as a violation (the CLI's nonzero-exit path).
func TestSLOBreachEnforced(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario breach replay skipped in -short")
	}
	data, err := scenarios.FS.ReadFile("slo-breach.yaml")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mustParse(t, string(data)), "")
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, r := range res.Report.SLOs {
		if r.Name == "gpu-floor" {
			found = true
			if r.OK || r.Breaches == 0 {
				t.Errorf("gpu-floor should breach, got %+v", r)
			}
			if r.Mode != "enforce" {
				t.Errorf("gpu-floor mode = %q, want enforce", r.Mode)
			}
		}
	}
	if !found {
		t.Fatal("gpu-floor missing from report slo section")
	}
	var violated bool
	for _, v := range res.Report.Violations {
		if strings.Contains(v, "gpu-floor") {
			violated = true
		}
	}
	if !violated {
		t.Errorf("enforce breach not in violations: %v", res.Report.Violations)
	}
}

// TestTelemetryValidation walks the strict-decode rejections of the
// telemetry, slos and region blocks.
func TestTelemetryValidation(t *testing.T) {
	cases := []struct {
		name, add, want string
	}{
		{"bad-expr", "slos:\n  - expr: \"gpus frobnicate 3\"\n", "slos[0].expr"},
		{"unknown-series", "slos:\n  - expr: \"entropy-p99 < 3\"\n", "unknown series"},
		{"missing-expr", "slos:\n  - name: x\n", "expr: required"},
		{"job-in-single", "slos:\n  - expr: \"gpus >= 0\"\n    job: a\n", "only valid in fleet mode"},
		{"dup-name", "slos:\n  - expr: \"gpus >= 0\"\n  - name: gpus\n    expr: \"gpus-min >= 0\"\n", "duplicate rule name"},
		{"bad-mode", "slos:\n  - expr: \"gpus >= 0\"\n    mode: panic\n", "mode"},
		{"sample-too-fast", "telemetry:\n  sample-every: 10ms\n", "sample-every"},
		{"negative-ring", "telemetry:\n  ring: -1\n", "ring"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(miniScenario + tc.add))
			if err == nil {
				t.Fatalf("%s: expected parse error", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
			}
		})
	}

	// dollars series require a prices block: strip it from the mini
	// scenario and the rule must be rejected.
	noPrices := strings.Split(miniScenario, "prices:")[0]
	if _, err := Parse([]byte(noPrices + "slos:\n  - expr: \"dollars < 100\"\n")); err == nil ||
		!strings.Contains(err.Error(), "needs a prices block") {
		t.Errorf("dollars without prices: got %v", err)
	}

	// Region validation: outages and spreads need zones-per-region.
	base := strings.Replace(miniScenario,
		"  cluster-gpus: 48\n",
		"  cluster-gpus: 48\n  topology:\n    zones: 4\n    racks-per-zone: 2\n    nodes-per-rack: 8\n", 1)
	if base == miniScenario {
		t.Fatal("topology splice failed")
	}
	// Events must be spliced into the existing events list, not
	// appended after the chaos block.
	withEvent := func(doc, item string) string {
		out := strings.Replace(doc, "chaos:", item+"chaos:", 1)
		if out == doc {
			t.Fatal("event splice failed")
		}
		return out
	}
	regionCases := []struct {
		name, doc, want string
	}{
		{"outage-needs-regions",
			withEvent(base, "  - at: 5h\n    kind: region-outage\n    domain: 0\n"),
			"zones-per-region"},
		{"zpr-too-big",
			strings.Replace(base, "nodes-per-rack: 8\n", "nodes-per-rack: 8\n    zones-per-region: 9\n", 1),
			"outside [0, zones]"},
		{"spread-needs-regions",
			base + "checkpoint:\n  replicas: 2\n  spread: region\n",
			"spread"},
	}
	for _, tc := range regionCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("expected parse error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// And the happy path: two regions, a region outage and a full slos
	// block parse clean.
	good := withEvent(strings.Replace(base, "nodes-per-rack: 8\n", "nodes-per-rack: 8\n    zones-per-region: 2\n", 1),
		"  - at: 5h\n    kind: region-outage\n    domain: 1\n") +
		"checkpoint:\n  replicas: 2\n  spread: region\n" +
		"telemetry:\n  sample-every: 30s\n  ring: 512\n" +
		"slos:\n  - expr: \"recovery-p99 < 600s\"\n    window: 2h\n  - expr: \"gpus-mean >= 10\"\n    for: 1h\n    mode: enforce\n"
	sc := mustParse(t, good)
	if sc.Job.Topology.Regions() != 2 {
		t.Errorf("Regions() = %d, want 2", sc.Job.Topology.Regions())
	}
	if len(sc.SLOs) != 2 || sc.SLOs[0].EffectiveName() != "recovery-p99" {
		t.Errorf("slos parsed wrong: %+v", sc.SLOs)
	}
	if _, err := Compile(sc); err != nil {
		t.Fatal(err)
	}
}

// TestSeriesNamesOneList pins manager.SeriesNames as the one list of
// sampled signals: a sampled spot-dollars run records exactly those
// series, each one parses as an SLO rule on a priced scenario, and an
// unknown series is rejected with the list in the message.
func TestSeriesNamesOneList(t *testing.T) {
	c, err := Compile(loadCommitted(t, "spot-dollars"))
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTelemetry()
	if _, err := c.Run(""); err != nil {
		t.Fatal(err)
	}
	names := manager.SeriesNames()
	if got := c.Series.Names(); !reflect.DeepEqual(got, names) {
		t.Errorf("a sampled run records %v, manager.SeriesNames lists %v", got, names)
	}
	for _, name := range names {
		if _, err := Parse([]byte(miniScenario + "slos:\n  - expr: \"" + name + " >= 0\"\n")); err != nil {
			t.Errorf("series %q does not parse as an SLO rule: %v", name, err)
		}
	}
	_, err = Parse([]byte(miniScenario + "slos:\n  - expr: \"entropy >= 0\"\n"))
	if want := "(known: " + strings.Join(names, ", ") + ")"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("unknown series: error %v, want it to mention %q", err, want)
	}
}
