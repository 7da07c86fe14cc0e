package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/simtime"
)

func TestParseYAMLNesting(t *testing.T) {
	doc := `
# comment
a: 1
b:
  c: two words  # trailing comment
  d:
    e: "quoted # not a comment"
list:
  - 1.5
  - 2.5
maps:
  - at: 2h
    kind: preempt
  - at: 3h
flow: [1.05, 1.18]
`
	n, err := parseYAML([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]ynode{
		"a": "1",
		"b": map[string]ynode{
			"c": "two words",
			"d": map[string]ynode{"e": "quoted # not a comment"},
		},
		"list": []ynode{"1.5", "2.5"},
		"maps": []ynode{
			map[string]ynode{"at": "2h", "kind": "preempt"},
			map[string]ynode{"at": "3h"},
		},
		"flow": []ynode{"1.05", "1.18"},
	}
	if !reflect.DeepEqual(n, want) {
		t.Fatalf("parsed\n%#v\nwant\n%#v", n, want)
	}
}

func TestParseYAMLErrors(t *testing.T) {
	for _, tc := range []struct{ name, doc, want string }{
		{"tab", "a:\n\tb: 1", "tab in indentation"},
		{"dup", "a: 1\na: 2", "duplicate key"},
		{"item-in-map", "a: 1\n- b", "list item inside a map"},
		{"key-in-list", "l:\n  - a\n  b: 1", "map key inside a list"},
		{"bad-entry", "just some words", "expected `key: value`"},
		{"unquoted", `a: "open`, "unterminated quote"},
	} {
		if _, err := parseYAML([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want simtime.Duration
	}{
		{"0", 0},
		{"500ms", 500 * simtime.Millisecond},
		{"90s", 90 * simtime.Second},
		{"10m", 10 * simtime.Minute},
		{"24h", 24 * simtime.Hour},
		{"1.5h", 90 * simtime.Minute},
	} {
		got, err := parseDuration(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "10", "3d", "h", "1.5", "NaNh", "Infh", "-Infs", "1e400ms", "1e12h", "-1e12h"} {
		if _, err := parseDuration(bad); err == nil {
			t.Errorf("parseDuration(%q) should fail", bad)
		}
	}
}

const miniScenario = `
version: 1
name: mini
job:
  model: GPT2-2.5B
  cluster-gpus: 48
  seed: 11
market:
  base-capacity: 40
  seed: 12
run:
  target-gpus: 48
  horizon: 6h
  manager-seed: 13
  gap-prior: market
  measure-stragglers: true
prices:
  kind: mean-reverting
  mean: 2.40
  vol: 0.18
  reversion: 0.12
  seed: 14
events:
  - at: 1h
    kind: preempt
    count: 4
  - at: 2h
    kind: straggler
    factor: 1.12
  - at: 3h
    kind: net-degrade
    factor: 1.6
    duration: 20m
  - at: 4h
    kind: price-shock
    factor: 2.0
    duration: 30m
chaos:
  seed: 21
  preempts-per-hour: 4
  burst-every: 2h
  burst-size: 6
  stragglers-per-hour: 1
  degrades-per-hour: 1
`

func TestParseScenario(t *testing.T) {
	sc, err := Parse([]byte(miniScenario))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "mini" || sc.Job.ClusterGPUs != 48 || sc.Run.Horizon != 6*simtime.Hour {
		t.Fatalf("bad decode: %+v", sc)
	}
	if len(sc.Events) != 4 || sc.Events[0].Count != 4 || sc.Events[2].Duration != 20*simtime.Minute {
		t.Fatalf("bad events: %+v", sc.Events)
	}
	if sc.Chaos == nil || sc.Chaos.StragglerFactor != [2]float64{1.05, 1.18} {
		t.Fatalf("bad chaos defaults: %+v", sc.Chaos)
	}
	if sc.Run.HeartbeatEvery != -1 {
		t.Fatalf("heartbeat default should stay unset, got %v", sc.Run.HeartbeatEvery)
	}
}

func TestParseScenarioStrict(t *testing.T) {
	for _, tc := range []struct{ name, old, new, want string }{
		{"unknown-key", "manager-seed: 13", "manager-seed: 13\n  bogus: 1", `unknown key "run.bogus"`},
		{"bad-version", "version: 1", "version: 2", "unsupported version"},
		{"bad-kind", "kind: straggler", "kind: slowpoke", "not one of"},
		{"bad-factor", "factor: 1.12", "factor: 0.9", "factor must exceed 1"},
		{"bad-bool", "measure-stragglers: true", "measure-stragglers: yes", "not true/false"},
		{"nan-factor", "factor: 1.12", "factor: NaN", `events[1].factor: "NaN" is not a finite number`},
		{"inf-mean", "mean: 2.40", "mean: Inf", `prices.mean: "Inf" is not a finite number`},
		{"overflow-vol", "vol: 0.18", "vol: 1e400", `prices.vol: "1e400" is not a finite number`},
		{"nan-target", "manager-seed: 13", "manager-seed: 13\n  target-examples: NaN", `run.target-examples: "NaN" is not a finite number`},
		{"nan-range", "degrades-per-hour: 1", "degrades-per-hour: 1\n  straggler-factor: [1.05, NaN]", `chaos.straggler-factor: "NaN" is not a finite number`},
		{"nan-duration", "horizon: 6h", "horizon: NaNh", `run.horizon: "NaNh" is not a duration`},
		{"overflow-duration", "duration: 20m", "duration: 1e12h", `events[2].duration: "1e12h" is out of range`},
		{"zero-probe", "seed: 12", "seed: 12\n  probe: 0", "market.probe: must be positive"},
		{"negative-probe", "seed: 12", "seed: 12\n  probe: -10m", `market.probe: "-10m" is negative`},
		{"negative-mean-hold", "seed: 12", "seed: 12\n  mean-hold: -1h", `market.mean-hold: "-1h" is negative`},
		{"negative-heartbeat", "manager-seed: 13", "manager-seed: 13\n  heartbeat-every: -5m", `run.heartbeat-every: "-5m" is negative`},
		{"negative-deadline", "manager-seed: 13", "manager-seed: 13\n  deadline-at: -1h", `run.deadline-at: "-1h" is negative`},
		{"negative-price-step", "reversion: 0.12", "reversion: 0.12\n  step: -1h", `prices.step: "-1h" is negative`},
		{"negative-at", "at: 1h", "at: -1h", `events[0].at: "-1h" is negative`},
		{"negative-event-duration", "duration: 20m", "duration: -20m", `events[2].duration: "-20m" is negative`},
		{"negative-slo-window", "degrades-per-hour: 1\n", "degrades-per-hour: 1\nslos:\n  - expr: gpus < 8\n    window: -1h\n", `slos[0].window: "-1h" is negative`},
		{"zero-gap-chaos-rate", "preempts-per-hour: 4", "preempts-per-hour: 4e9", "chaos.preempts-per-hour: 4e+09 exceeds"},
	} {
		doc := strings.Replace(miniScenario, tc.old, tc.new, 1)
		if doc == miniScenario {
			t.Fatalf("%s: replacement %q not found", tc.name, tc.old)
		}
		if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
	// Dollar objectives and price shocks need a prices block.
	doc := strings.Replace(miniScenario, "kind: mean-reverting", "kind: none", 1)
	if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), "needs a prices block") {
		t.Errorf("price-shock without prices: got %v", err)
	}
}

func TestChaosExpandDeterministic(t *testing.T) {
	c := &Chaos{
		Seed:              7,
		PreemptsPerHour:   10,
		BurstEvery:        2 * simtime.Hour,
		BurstSize:         5,
		StragglersPerHour: 1,
		StragglerFactor:   [2]float64{1.05, 1.18},
		NetEvery:          3 * simtime.Hour,
		NetFactor:         [2]float64{1.3, 2},
		NetDuration:       30 * simtime.Minute,
	}
	a := c.Expand(8 * simtime.Hour)
	b := c.Expand(8 * simtime.Hour)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec+seed expanded differently")
	}
	if len(a) == 0 {
		t.Fatal("no events generated")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
	}
	c.Seed = 8
	if reflect.DeepEqual(a, c.Expand(8*simtime.Hour)) {
		t.Fatal("different seeds expanded identically")
	}
}
