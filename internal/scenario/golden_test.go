package scenario

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/scenarios"
)

// goldenReport runs a committed scenario the way `varuna-sim run
// -json` does (single-job or fleet as declared) and returns the
// report bytes as they would land on disk: JSON plus the CLI's
// trailing newline.
func goldenReport(t *testing.T, file string) []byte {
	t.Helper()
	data, err := scenarios.FS.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var rep []byte
	if sc.Fleet != nil {
		res, err := RunFleet(sc)
		if err != nil {
			t.Fatal(err)
		}
		rep, err = res.Report.JSON()
		if err != nil {
			t.Fatal(err)
		}
	} else {
		res, err := Run(sc, "")
		if err != nil {
			t.Fatal(err)
		}
		rep, err = res.Report.JSON()
		if err != nil {
			t.Fatal(err)
		}
	}
	return append(rep, '\n')
}

// TestGoldenReportsUnchanged pins the telemetry layer's off-path
// contract at the report level: every committed scenario that
// predates the telemetry/SLO blocks must still produce report bytes
// identical to the goldens captured before the layer existed. A
// diff here means sampling hooks leaked into undeclared runs.
func TestGoldenReportsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario golden replays skipped in -short")
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "goldens", "*.report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) < 6 {
		t.Fatalf("expected ≥6 golden reports, found %d", len(goldens))
	}
	for _, golden := range goldens {
		name := strings.TrimSuffix(filepath.Base(golden), ".report.json")
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenReport(t, name+".yaml")
			if !bytes.Equal(got, want) {
				t.Errorf("%s report diverged from pre-telemetry golden (%d vs %d bytes)", name, len(got), len(want))
			}
		})
	}
}

// observedOutputs runs a committed scenario with every observability
// hook attached (telemetry forced on, a tracer and a metrics registry)
// and returns what the CLI exporters would write, keyed by file suffix:
// the Chrome trace, the report JSON, the HTML page, the OpenMetrics
// text and the series CSV.
func observedOutputs(t *testing.T, name string) map[string][]byte {
	t.Helper()
	sc := loadCommitted(t, name)
	tr, met := obs.NewTracer(), obs.NewMetrics()
	var rep, page []byte
	var series *obs.SeriesSet
	var err error
	if sc.Fleet != nil {
		c, err := CompileFleet(sc)
		if err != nil {
			t.Fatal(err)
		}
		c.EnableTelemetry()
		c.Observe(tr, met)
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep, err = res.Report.JSON(); err != nil {
			t.Fatal(err)
		}
		page, series = res.HTML(), c.Series
	} else {
		c, err := Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		c.EnableTelemetry()
		c.Observe(tr, met)
		res, err := c.Run("")
		if err != nil {
			t.Fatal(err)
		}
		if rep, err = res.Report.JSON(); err != nil {
			t.Fatal(err)
		}
		page, series = res.HTML(), c.Series
	}
	trace, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"trace.json":  trace,
		"report.json": rep,
		"html":        page,
		"metrics.om":  obs.OpenMetrics(met.Snapshot(obs.SimOnly), series),
		"series.csv":  series.CSV(),
	}
}

// TestObservedOutputsPinned pins the outputs of observed runs across
// commits, where the trace and telemetry tests only compare two runs
// of one build. Every committed scenario runs with all hooks attached,
// and the SHA-256 of each export must match
// testdata/goldens/observed.sha256 ("<digest>  <scenario>.<suffix>"
// lines). The file holds digests because the traces and CSVs run to a
// megabyte each. On a mismatch the test logs the file this build
// would write; commit it only for an intended change, and say why.
func TestObservedOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("observed replays of every committed scenario skipped in -short")
	}
	pinPath := filepath.Join("testdata", "goldens", "observed.sha256")
	data, err := os.ReadFile(pinPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		digest, key, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", pinPath, line)
		}
		want[key] = digest
	}
	entries, err := scenarios.FS.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	seen := 0
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".yaml")
		if !ok {
			continue
		}
		outs := observedOutputs(t, name)
		for _, suffix := range []string{"trace.json", "report.json", "html", "metrics.om", "series.csv"} {
			key := name + "." + suffix
			digest := fmt.Sprintf("%x", sha256.Sum256(outs[suffix]))
			fmt.Fprintf(&got, "%s  %s\n", digest, key)
			seen++
			if want[key] != digest {
				t.Errorf("%s: sha256 %s, pinned %q", key, digest, want[key])
			}
		}
	}
	if seen != len(want) {
		t.Errorf("%s pins %d outputs, the committed scenarios produce %d", pinPath, len(want), seen)
	}
	if t.Failed() {
		t.Logf("%s as this build would write it:\n%s", pinPath, got.String())
	}
}
