package scenario

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/scenarios"
)

// loadCommitted parses a committed scenario file.
func loadCommitted(t *testing.T, name string) *Scenario {
	t.Helper()
	data, err := scenarios.FS.ReadFile(name + ".yaml")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestObserveNilIdentical pins the off-is-free contract at the report
// level: attaching nil observability hooks changes nothing — the
// report bytes are identical to a plain, unobserved run.
func TestObserveNilIdentical(t *testing.T) {
	plain, err := Run(loadCommitted(t, "elastic"), "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(loadCommitted(t, "elastic"))
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(nil, nil)
	observed, err := c.Run("")
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := observed.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Observe(nil, nil) changed the report bytes")
	}
	if observed.Report.Obs != nil {
		t.Fatal("unobserved run grew an obs snapshot")
	}
}

// TestTimelineSingleStream pins the single-ordered-stream property:
// every timeline point — morphs, holds, downs, checkpoints, samples
// and release-carrying points alike — goes through the one emit path,
// so the trace's "timeline" instants mirror the point stream 1:1 in
// order, name and simulated instant. An event kind bypassing that path
// (the old Released/hold drift) shifts the streams apart and fails
// here.
func TestTimelineSingleStream(t *testing.T) {
	c, err := Compile(loadCommitted(t, "spot-dollars"))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	c.Observe(tr, nil)
	res, err := c.Run("")
	if err != nil {
		t.Fatal(err)
	}

	var stream []obs.Span
	for _, sp := range tr.Spans() {
		if sp.Cat == "timeline" {
			stream = append(stream, sp)
		}
	}
	if len(stream) != len(res.Points) {
		t.Fatalf("trace saw %d timeline events, point stream has %d", len(stream), len(res.Points))
	}
	sawReleased, sawHold := false, false
	for i, sp := range stream {
		p := res.Points[i]
		want := p.Event
		if want == "" {
			want = "sample"
		}
		if sp.Name != want || sp.Start != p.At {
			t.Fatalf("stream drift at %d: trace %q@%v vs point %q@%v", i, sp.Name, sp.Start, p.Event, p.At)
		}
		if p.Event == "hold" {
			sawHold = true
		}
		if p.Released > 0 {
			sawReleased = true
			ok := false
			for _, a := range sp.Args {
				if a.Key == "released" && a.Val == int64(p.Released) {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("point %d released %d VMs but its trace instant says %+v", i, p.Released, sp.Args)
			}
		}
	}
	if !sawHold || !sawReleased {
		t.Fatalf("spot-dollars run exercised hold=%v released=%v; the drift regression needs both", sawHold, sawReleased)
	}
}

// runTracedMultiJob executes the committed multi-job fleet soak with
// tracing on and returns the trace bytes plus the report bytes.
func runTracedMultiJob(t *testing.T) (*obs.Tracer, []byte, []byte) {
	t.Helper()
	c, err := CompileFleet(loadCommitted(t, "multi-job"))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	met := obs.NewMetrics()
	c.Observe(tr, met)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Violations) != 0 {
		t.Fatalf("violations: %v", res.Report.Violations)
	}
	trace, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return tr, trace, rep
}

// TestMultiJobTraceChain is the tentpole acceptance gate: the traced
// committed multi-job run must contain a walkable causal chain from a
// restart phase back through the morph decision and the preemption to
// the market/arbiter event that caused it — including at least one
// chain through a revocation cascade — and both the exported trace and
// the report must be byte-stable across two fresh runs.
func TestMultiJobTraceChain(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-job soak is slow; skipped with -short")
	}
	tr, trace1, rep1 := runTracedMultiJob(t)

	// Track layout: control tracks first, then one per job.
	tracks := tr.Tracks()
	if len(tracks) < 4 || tracks[0] != "market" || tracks[1] != "arbiter" {
		t.Fatalf("track layout %v", tracks)
	}

	// Walk every restart-phase span's ancestry and classify what the
	// chains connect.
	names := func(chain []obs.Span) map[string]bool {
		m := map[string]bool{}
		for _, sp := range chain {
			m[sp.Cat+"/"+sp.Name] = true
		}
		return m
	}
	// ancestry walks parent links from id upward, root last. Span ids
	// are 1-based recording positions.
	spans := tr.Spans()
	ancestry := func(id obs.SpanID) []obs.Span {
		var out []obs.Span
		for id > 0 && int(id) <= len(spans) {
			out = append(out, spans[id-1])
			id = spans[id-1].Parent
		}
		return out
	}
	var viaMarket, viaCascade, restarts int
	for _, sp := range spans {
		if sp.Cat != "restart" {
			continue
		}
		restarts++
		chain := ancestry(sp.ID)
		if chain[len(chain)-1].Parent != 0 {
			t.Fatalf("restart span %d chain does not reach a root", sp.ID)
		}
		n := names(chain)
		if !n["manager/decision"] {
			t.Fatalf("restart span %d not under a morph decision: %v", sp.ID, n)
		}
		if n["fleet/preempt"] && (n["market/reclaim"] || n["market/scripted-reclaim"]) {
			viaMarket++
		}
		if n["fleet/preempt"] && n["arbiter/revoke"] && n["arbiter/cascade"] {
			viaCascade++
		}
	}
	if restarts == 0 {
		t.Fatal("no restart phases recorded")
	}
	if viaMarket == 0 {
		t.Fatal("no restart chain reaches a market preemption")
	}
	if viaCascade == 0 {
		t.Fatal("no restart chain passes through a revocation cascade")
	}

	// Byte-stability across a fresh replay: trace and report alike
	// (the report embeds the SimOnly metrics snapshot).
	_, trace2, rep2 := runTracedMultiJob(t)
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("exported trace differs across replays")
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("observed report differs across replays")
	}
}
