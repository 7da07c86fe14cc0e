package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/scenarios"
)

// seedCommitted adds every committed scenario file to the corpus, so
// the fuzzer starts from real, full-featured documents (including the
// fleet-mode one) instead of discovering the grammar from scratch.
func seedCommitted(f *testing.F) {
	entries, err := scenarios.FS.ReadDir(".")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".yaml") {
			continue
		}
		data, err := scenarios.FS.ReadFile(e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// FuzzParseYAML drives the YAML-subset parser: it must never panic,
// and a successful parse must be deterministic.
func FuzzParseYAML(f *testing.F) {
	seedCommitted(f)
	f.Add([]byte("a: 1\nb:\n  c: two\nlist:\n  - 1\n  - k: v\nflow: [1, 2]\n"))
	f.Add([]byte("a: \"quoted # not a comment\"\n"))
	f.Add([]byte("- top level item\n"))
	f.Add([]byte("a:\n\tb: tab\n"))
	f.Add([]byte("deep:\n  deeper:\n    deepest:\n      leaf: 1\n"))
	f.Add([]byte("job:\n  topology:\n    zones: 4\nevents:\n  - kind: zone-outage\n    domain: 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n1, err1 := parseYAML(data)
		n2, err2 := parseYAML(data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic error: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(n1, n2) {
			t.Fatalf("nondeterministic parse:\n%#v\nvs\n%#v", n1, n2)
		}
	})
}

// FuzzParse drives the full strict decoder (parse, decode, validate):
// it must never panic, errors must be deterministic, and a document
// that decodes must decode to the same scenario every time.
func FuzzParse(f *testing.F) {
	seedCommitted(f)
	f.Add([]byte(miniScenario))
	f.Add([]byte(miniFleet))
	f.Add([]byte("version: 1\nname: x\njob:\n  cluster-gpus: 8\nmarket:\n  base-capacity: 10\nrun:\n  target-gpus: 8\n  horizon: 1h\n"))
	f.Add([]byte("version: 1\nfleet:\n  horizon: 1h\njobs:\n  - name: a\n"))
	// Non-finite numbers must fail to decode: a decoded NaN would also
	// compare unequal to itself below.
	f.Add([]byte("version: 1\nname: x\njob:\n  cluster-gpus: 8\nmarket:\n  base-capacity: 10\nrun:\n  target-gpus: 8\n  horizon: 1h\n  objective: deadline\n  deadline-at: NaNh\n  target-examples: NaN\nprices:\n  kind: constant\n  per-gpu-hour: Inf\n"))
	f.Add([]byte("version: 1\nname: t\njob:\n  cluster-gpus: 8\n  topology:\n    zones: 4\n    racks-per-zone: 2\n    nodes-per-rack: 2\ncheckpoint:\n  replicas: 2\n  spread: rack\nmarket:\n  base-capacity: 10\nrun:\n  target-gpus: 8\n  horizon: 2h\nevents:\n  - at: 1h\n    kind: rack-outage\nchaos:\n  seed: 5\n  zone-outage-every: 45m\n  rack-outage-every: 90m\n"))
	f.Add([]byte("version: 1\nname: fz\nfleet:\n  horizon: 2h\n  zones: 4\nmarket:\n  base-capacity: 10\njobs:\n  - name: a\n    cluster-gpus: 8\n    target-gpus: 8\nevents:\n  - at: 1h\n    kind: zone-outage\n    domain: 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc1, err1 := Parse(data)
		sc2, err2 := Parse(data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic error: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if sc1 == nil {
			t.Fatal("nil scenario without error")
		}
		if !reflect.DeepEqual(sc1, sc2) {
			t.Fatalf("nondeterministic decode:\n%#v\nvs\n%#v", sc1, sc2)
		}
		// A decoded scenario is exactly one of single-job or fleet mode:
		// a fleet spec always comes with a validated jobs list, and a
		// single-job scenario never carries one.
		if (sc1.Fleet != nil) != (len(sc1.Jobs) > 0) {
			t.Fatalf("fleet spec and jobs list disagree: %+v", sc1)
		}
	})
}
