package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestMedianAndMean(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		med, meanV float64
	}{
		{nil, 0, 0},
		{[]float64{3}, 3, 3},
		{[]float64{5, 1, 3}, 3, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 2.5},
		{[]float64{116, 150, 116, 150, 150}, 150, 136.4},
	} {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if got := mean(c.xs); math.Abs(got-c.meanV) > 1e-9 {
			t.Errorf("mean(%v) = %v, want %v", c.xs, got, c.meanV)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, 10)); ok {
		t.Fatal("ten samples cannot have a tail with ten beyond it")
	}
	for _, c := range []struct{ n, pct int }{{11, 9}, {20, 50}, {53, 81}, {100, 90}, {1000, 99}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // reversed: tail must sort
		}
		pct, v, ok := tail(xs)
		if !ok || pct != c.pct {
			t.Errorf("n=%d: percentile %d (ok %v), want %d", c.n, pct, ok, c.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < tailMinBeyond {
			t.Errorf("n=%d: p%d = %v leaves %d samples beyond it", c.n, pct, v, beyond)
		}
	}
	// The highest such percentile: one point higher leaves fewer than ten.
	for n := 11; n <= 2000; n++ {
		pct, _, _ := tail(make([]float64, n))
		if next := pct + 1; (next*n+99)/100 <= n-tailMinBeyond {
			t.Fatalf("n=%d: p%d also leaves ten samples beyond it", n, next)
		}
	}
}

func TestOverrunsStopsShortOfTheBudget(t *testing.T) {
	const s = time.Second
	for _, c := range []struct {
		elapsed time.Duration
		n       int
		want    bool
	}{
		{0, 0, false},       // nothing has run yet
		{16 * s, 2, false},  // a third 8 s run ends at 24 s
		{24 * s, 3, true},   // a fourth would end at 32 s
		{24 * s, 24, false}, // short runs fill the budget exactly
		{25 * s, 25, true},
	} {
		if got := overruns(c.elapsed, c.n, 25*s); got != c.want {
			t.Errorf("overruns(%v, %d, 25s) = %v, want %v", c.elapsed, c.n, got, c.want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 30, End: 60}, // overlaps the next one: covered once
		{Start: 10, End: 40},
		{Start: 90, End: 120},  // clipped to the parent
		{Start: 200, End: 300}, // outside the parent
		{Start: 15, End: 20},   // inside another child
	}
	if got, want := selfTime(parent, kids), time.Duration(40); got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children %v, want 100", got)
	}

	tr := newTracer()
	root := tr.begin("root", -1)
	tr.call("child", root, func() { time.Sleep(time.Millisecond) })
	total := tr.end(root)
	if self := tr.self(root); self < 0 || self >= total {
		t.Errorf("root self %v of total %v", self, total)
	}
	if n := len(tr.durations("child")); n != 1 {
		t.Errorf("%d child spans, want 1", n)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*executor).run":                                         "sim",
		"repro/internal/simtime.(*EventQueue).down":                                  "simtime",
		"repro/internal/gen2.(*Map[repro/internal/autoconfig.costKey,go.shape]).Get": "gen2",
		"repro/internal/nn.MatMul":                                                   "nn",
		"runtime.mallocgc":                                                           "runtime",
		"runtime/internal/syscall.Syscall6":                                          "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                                    "runtime",
		"sort.insertionSort_func":                                                    unattributed,
		"main.main":                                                                  unattributed,
		"type:.eq.repro/internal/autoconfig.costKey":                                 unattributed,
		"math.Exp": unattributed,
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for hand-built test profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) uint(field int, x uint64) { p.varint(uint64(field)<<3 | 0); p.varint(x) }

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, xs ...uint64) {
	var q pb
	for _, x := range xs {
		q.varint(x)
	}
	p.bytes(field, q.b)
}

func TestCPUSharesAttributeLeafFrames(t *testing.T) {
	var prof pb
	names := []string{"", "repro/internal/sim.(*executor).run", "runtime.mallocgc", "sort.insertionSort", "main.main"}
	for _, s := range names {
		prof.bytes(6, []byte(s))
	}
	for id := 1; id <= 4; id++ {
		var f pb
		f.uint(1, uint64(id))
		f.uint(2, uint64(id)) // name: string index id
		prof.bytes(5, f.b)
	}
	// Locations 1-3 hold one function each. Location 4 holds sim
	// inlined into main: its first line is the leaf.
	loc := func(id uint64, funcs ...uint64) {
		var l pb
		l.uint(1, id)
		for _, fid := range funcs {
			var line pb
			line.uint(1, fid)
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
	}
	loc(1, 1)
	loc(2, 2)
	loc(3, 3)
	loc(4, 1, 4)
	sample := func(value uint64, locs ...uint64) {
		var s pb
		if len(locs) > 2 {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
		}
		s.packed(2, value, value*10_000_000)
		prof.bytes(2, s.b)
	}
	sample(3, 1, 4)    // leaf sim
	sample(1, 4, 4, 4) // leaf sim via the inlined location, packed ids
	sample(2, 2, 1, 4) // leaf runtime, packed ids
	sample(2, 3, 4)    // leaf sort: unattributed
	sample(2, 4)       // leaf sim

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()
	shares, n, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.6, "runtime": 0.2, unattributed: 0.2}
	if n != 10 || len(shares) != len(want) {
		t.Fatalf("%d samples, shares %v; want 10 samples, %v", n, shares, want)
	}
	var total float64
	for m, s := range shares {
		if math.Abs(s-want[m]) > 1e-12 {
			t.Errorf("%s share %v, want %v", m, s, want[m])
		}
		total += s
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v", total)
	}
	if _, _, err := cpuShares([]byte("not gzip")); err == nil {
		t.Error("garbage profile decoded without error")
	}
}

func TestGoldenAndDigestComparison(t *testing.T) {
	rep := &scenario.FleetReport{Scenario: "s", Version: 1, Violations: []string{}}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	r := &scenarioRunner{file: "s", golden: want, res: &scenario.FleetResult{Report: rep}}
	if a, f := r.check(); a != 1 || f != 0 {
		t.Fatalf("matching report: %d attempted, %d failed", a, f)
	}
	if !bytes.Equal(r.output(), want) || digest(r.output()) != digest(want) || len(digest(want)) != 16 {
		t.Fatal("output is not the report plus a trailing newline")
	}

	r.golden = bytes.Replace(want, []byte(`"s"`), []byte(`"t"`), 1)
	if _, f := r.check(); f != 1 {
		t.Error("a report differing from the golden passed")
	}
	if d := firstDiff(want, r.golden); !strings.Contains(d, "line 2") {
		t.Errorf("firstDiff = %q, want the second line", d)
	}
	if d := firstDiff(want, want[:len(want)-1]); d == "" {
		t.Error("a missing trailing newline went unnoticed")
	}
	if digest(want) == digest(r.golden) {
		t.Error("different outputs share a digest")
	}

	r.observed = true // an observed report carries an obs section
	if _, f := r.check(); f != 0 {
		t.Error("an observed run was compared with the unobserved golden")
	}
	rep.Violations = []string{"lost progress"}
	if _, f := r.check(); f != 1 {
		t.Error("a report with violations passed")
	}
}

func TestStreamSeed(t *testing.T) {
	if got := (input{0, 0}).streamSeed("market", 77); got != 77 {
		t.Errorf("the committed input rewrote the committed seed to %d", got)
	}
	in := input{1, 0}
	a, b := in.streamSeed("market", 77), in.streamSeed("chaos", 77)
	if a == b || a <= 0 || b <= 0 || a != in.streamSeed("market", 5) {
		t.Errorf("stream seeds not distinct, positive and deterministic: %d %d", a, b)
	}
	for _, other := range []input{{2, 0}, {1, 1}, {0, 1}} {
		if other.streamSeed("market", 77) == a {
			t.Errorf("input %v shares a market seed with %v", other, in)
		}
	}
}

func TestDecisionWalkCoversEveryLevel(t *testing.T) {
	levels := decisionLevels()
	w1 := decisionWalk(1, levels, decisionSteps, decisionMaxJump)
	if !reflect.DeepEqual(w1, decisionWalk(1, levels, decisionSteps, decisionMaxJump)) {
		t.Fatal("walk is not deterministic in its seed")
	}
	if reflect.DeepEqual(w1, decisionWalk(2, levels, decisionSteps, decisionMaxJump)) {
		t.Fatal("different seeds gave the same walk")
	}
	for seed := int64(1); seed <= 50; seed++ {
		w := decisionWalk(seed, levels, 20, decisionMaxJump)
		seen := map[int]bool{}
		for _, g := range w {
			seen[g] = true
		}
		if len(seen) != len(levels) {
			t.Fatalf("seed %d: walk reaches %d of %d levels", seed, len(seen), len(levels))
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the benchmark's
// workloads and metrics in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, w.Name, workloads[i].name)
		}
	}
	r := newResult()
	r.set("setup_s", 1, "s")
	r.set("run_s", 1, "s")
	r.set("alloc_mb", 1, "MB")
	r.set("peak_rss_mb", 1, "MB")
	var names []string
	for _, m := range bj.EndToEnd {
		names = append(names, m.Name)
		if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s %s is not what measure reports", m.Name, m.Unit)
		}
	}
	if len(names) != len(r.Metrics) {
		t.Errorf("end-to-end metrics %v, measure reports %d", names, len(r.Metrics))
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s %s, the code %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
