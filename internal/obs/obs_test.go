package obs

import (
	"testing"

	"repro/internal/simtime"
)

func TestTrackRegistration(t *testing.T) {
	tr := NewTracer()
	mkt := tr.Track("market")
	arb := tr.Track("arbiter")
	if mkt != 1 || arb != 2 {
		t.Fatalf("track ids %d,%d; want 1,2", mkt, arb)
	}
	if again := tr.Track("market"); again != mkt {
		t.Fatalf("re-registering returned %d, want %d", again, mkt)
	}
	want := []string{"market", "arbiter"}
	tracks := tr.Tracks()
	if len(tracks) != len(want) || tracks[0] != want[0] || tracks[1] != want[1] {
		t.Fatalf("Tracks() = %v, want %v", tracks, want)
	}
}

// find returns the span with the given id from tr's snapshot.
func find(tr *Tracer, id SpanID) (Span, bool) {
	spans := tr.Spans()
	if id < 1 || int(id) > len(spans) {
		return Span{}, false
	}
	return spans[id-1], true
}

func TestSpanLifecycle(t *testing.T) {
	tr := NewTracer()
	trk := tr.Track("job")
	id := tr.Begin(trk, 0, 100, "manager", "train")
	if id != 1 {
		t.Fatalf("first span id %d", id)
	}
	tr.SetArgs(id, I64("gpus", 8), Str("label", "morph"))
	tr.End(id, 500)

	sp, ok := find(tr, id)
	if !ok {
		t.Fatal("span not found")
	}
	if sp.Start != 100 || sp.End != 500 || sp.Cat != "manager" || sp.Name != "train" {
		t.Fatalf("span %+v", sp)
	}
	if len(sp.Args) != 2 || sp.Args[0].Val != 8 || sp.Args[1].Str != "morph" {
		t.Fatalf("args %+v", sp.Args)
	}

	// End never rewinds: a second, earlier End leaves the span alone.
	tr.End(id, 200)
	if sp, _ = find(tr, id); sp.End != 500 {
		t.Fatalf("End rewound span to %v", sp.End)
	}

	// Instants carry ids and zero duration.
	iid := tr.Instant(trk, id, 300, "fleet", "preempt")
	if sp, _ = find(tr, iid); sp.Start != sp.End || sp.Parent != id {
		t.Fatalf("instant %+v", sp)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len() = %d", tr.Len())
	}

	// Unknown ids are ignored, not panics.
	tr.End(99, 1000)
	tr.SetArgs(99, I64("x", 1))
	if _, ok := find(tr, 99); ok {
		t.Fatal("found a span that was never recorded")
	}
}

func TestChainRootLast(t *testing.T) {
	tr := NewTracer()
	mkt := tr.Track("market")
	job := tr.Track("job")
	reclaim := tr.Instant(mkt, 0, 10, "market", "reclaim")
	preempt := tr.Instant(job, reclaim, 10, "fleet", "preempt")
	decide := tr.Begin(job, preempt, 10, "manager", "decision")
	restart := tr.Begin(job, decide, 20, "restart", "stop")

	// Walk the recorded parent links from the restart span up.
	var chain []Span
	for id := restart; id != 0; {
		sp, ok := find(tr, id)
		if !ok {
			t.Fatalf("parent %d was never recorded", id)
		}
		chain = append(chain, sp)
		id = sp.Parent
	}
	want := []string{"stop", "decision", "preempt", "reclaim"}
	if len(chain) != len(want) {
		t.Fatalf("chain length %d, want %d", len(chain), len(want))
	}
	for i, name := range want {
		if chain[i].Name != name {
			t.Fatalf("chain[%d] = %q, want %q", i, chain[i].Name, name)
		}
	}
	if chain[len(chain)-1].Parent != 0 {
		t.Fatal("chain root has a parent")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	if id := tr.Begin(1, 0, 0, "a", "b"); id != 0 {
		t.Fatalf("nil Begin returned %d", id)
	}
	if id := tr.Track("x"); id != 0 {
		t.Fatalf("nil Track returned %d", id)
	}
	tr.End(1, 10)
	tr.SetArgs(1, I64("k", 1))
	if tr.Instant(0, 0, 0, "a", "b") != 0 || tr.Len() != 0 {
		t.Fatal("nil tracer recorded something")
	}
	if tr.Spans() != nil || tr.Tracks() != nil {
		t.Fatal("nil tracer snapshots non-nil")
	}
}

// TestTracerDisabledZeroAlloc pins design constraint 1: every tracer
// and metrics operation on the disabled (nil) instances — the exact
// calls left on instrumented hot paths when tracing is off — performs
// zero allocations.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	var met *Metrics
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("unexpectedly enabled")
		}
		id := tr.Begin(1, 0, simtime.Time(1), "manager", "train")
		tr.End(id, simtime.Time(2))
		tr.Instant(1, id, simtime.Time(2), "fleet", "preempt")
		tr.SetArgs(id)
		met.Count("planner.sweeps", 1)
		met.Gauge("g", 1)
		met.Observe("h", 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled hot path allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkTracerDisabled is the benchdiff-visible form of the same
// gate: b.ReportAllocs surfaces any regression as allocs/op > 0.
func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	var met *Metrics
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := tr.Begin(1, 0, simtime.Time(int64(i)), "manager", "train")
		tr.End(id, simtime.Time(int64(i+1)))
		met.Observe("h", float64(i))
	}
}

func BenchmarkTracerEnabled(b *testing.B) {
	tr := NewTracer()
	trk := tr.Track("job")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := tr.Begin(trk, 0, simtime.Time(int64(i)), "manager", "train")
		tr.End(id, simtime.Time(int64(i+1)))
	}
}
