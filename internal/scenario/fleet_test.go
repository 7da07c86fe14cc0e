package scenario

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/scenarios"
)

const miniFleet = `
version: 1
name: mini-fleet
fleet:
  horizon: 8h
  vm-gpus: 1
  victim-seed: 19
market:
  base-capacity: 120
  seed: 7
prices:
  kind: mean-reverting
  mean: 2.40
  vol: 0.18
  reversion: 0.12
  seed: 107
jobs:
  - name: deadline
    cluster-gpus: 48
    seed: 11
    manager-seed: 13
    target-gpus: 40
    min-gpus: 16
    priority: 1.5
    objective: deadline
    deadline-at: 8h
    target-examples: 2e6
  - name: batch
    cluster-gpus: 48
    target-gpus: 24
events:
  - at: 2h
    kind: preempt
    count: 8
  - at: 3h
    kind: price-shock
    factor: 1.5
    duration: 30m
`

func TestParseFleetScenario(t *testing.T) {
	sc, err := Parse([]byte(miniFleet))
	if err != nil {
		t.Fatal(err)
	}
	f := sc.Fleet
	if f == nil || f.Horizon != 8*simtime.Hour || f.VMGPUs != 1 || f.VictimSeed != 19 {
		t.Fatalf("bad fleet spec: %+v", f)
	}
	if len(sc.Jobs) != 2 {
		t.Fatalf("want 2 jobs, got %+v", sc.Jobs)
	}
	j := sc.Jobs[0]
	if j.Name != "deadline" || j.Objective != "deadline" || j.MinGPUs != 16 ||
		j.Priority != 1.5 || j.DeadlineAt != 8*simtime.Hour || j.TargetExamples != 2e6 {
		t.Fatalf("bad job[0]: %+v", j)
	}
	// Per-job defaults mirror the single-job block's.
	j = sc.Jobs[1]
	if j.Model != "GPT2-2.5B" || j.Batch != 8192 || j.Seed != 1 ||
		j.ManagerSeed != 1 || j.Priority != 1 || j.Objective != "max-throughput" {
		t.Fatalf("bad job[1] defaults: %+v", j)
	}
}

func TestParseFleetStrict(t *testing.T) {
	for _, tc := range []struct{ name, old, new, want string }{
		{"job-block", "market:", "job:\n  cluster-gpus: 8\nmarket:", `fleet mode: the "job" block is not allowed`},
		{"run-block", "market:", "run:\n  horizon: 1h\nmarket:", `fleet mode: the "run" block is not allowed`},
		{"chaos-block", "market:", "chaos:\n  seed: 3\nmarket:", `fleet mode: the "chaos" block is not allowed`},
		{"no-horizon", "horizon: 8h", "horizon: 0", "fleet.horizon: required"},
		{"bad-vm", "vm-gpus: 1", "vm-gpus: 2", "fleet.vm-gpus: must be 1 or 4"},
		{"no-name", "name: batch", "priority: 1", "jobs[1].name: required"},
		{"dup-name", "name: batch", "name: deadline", `jobs[1].name: duplicate "deadline"`},
		{"no-cluster", "  - name: batch\n    cluster-gpus: 48\n", "  - name: batch\n", "jobs[1].cluster-gpus: required"},
		{"bad-min", "min-gpus: 16", "min-gpus: 41", "jobs[0].min-gpus: 41 outside [0, target-gpus]"},
		{"bad-kind", "kind: preempt\n    count: 8", "kind: straggler\n    factor: 1.12", "fleet mode supports only preempt, price-shock and zone-outage"},
		{"vm-pin", "kind: preempt\n    count: 8", "kind: preempt\n    count: 8\n    vm: 3", "vm pinning is not supported in fleet mode"},
		{"bad-count", "count: 8", "count: 0", "count must be positive"},
		{"late-event", "at: 3h", "at: 9h", "outside [0, horizon]"},
		{"unknown-key", "victim-seed: 19", "victim-seed: 19\n  bogus: 1", `unknown key "fleet.bogus"`},
		{"zero-probe", "seed: 7", "seed: 7\n  probe: 0", "market.probe: must be positive"},
		{"negative-probe", "seed: 7", "seed: 7\n  probe: -10m", `market.probe: "-10m" is negative`},
		{"negative-deadline", "deadline-at: 8h", "deadline-at: -8h", `jobs[0].deadline-at: "-8h" is negative`},
		{"negative-at", "at: 2h", "at: -2h", `events[0].at: "-2h" is negative`},
	} {
		doc := strings.Replace(miniFleet, tc.old, tc.new, 1)
		if doc == miniFleet {
			t.Fatalf("%s: replacement %q not found", tc.name, tc.old)
		}
		if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
	// A priced objective without a prices block is rejected.
	doc := strings.Replace(miniFleet, "kind: mean-reverting", "kind: none", 1)
	if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), `objective "deadline" needs a prices block`) {
		t.Errorf("priced objective without prices: got %v", err)
	}
	// No jobs at all.
	doc = miniFleet[:strings.Index(miniFleet, "jobs:")] + "jobs: []\n"
	if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), "fleet mode needs at least one job") {
		t.Errorf("empty jobs: got %v", err)
	}
}

// TestMultiJobDeterministic runs the committed multi-job soak twice and
// pins the ISSUE acceptance gate: three tenants with mixed objectives,
// at least one revocation cascade, zero invariant violations, and a
// byte-identical report on replay.
func TestMultiJobDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-job soak is slow; skipped with -short")
	}
	data, err := scenarios.FS.ReadFile("multi-job.yaml")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *FleetResult {
		sc, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunFleet(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()

	rep := a.Report
	if len(rep.Jobs) < 3 {
		t.Fatalf("want >=3 jobs, got %d", len(rep.Jobs))
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations: %v", rep.Violations)
	}
	if rep.Arbiter.Cascades < 1 {
		t.Fatalf("want >=1 revocation cascade, got %d", rep.Arbiter.Cascades)
	}
	for i, jr := range a.Jobs {
		if jr.Stats.MiniBatches == 0 {
			t.Errorf("job %s never trained", jr.Name)
		}
		if rep.JobDollars[i] <= 0 {
			t.Errorf("job %s billed nothing", jr.Name)
		}
	}

	aj, err := a.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatal("multi-job replay is not byte-identical")
	}
}
