package sim

import (
	"testing"

	"repro/internal/schedule"
	"repro/internal/simtime"
)

// benchCosts18 is the P=18 shape of the 128-GPU 8.3B job that §7.2
// times: realistic per-stage kernel and transfer costs.
func benchCosts18() []StageCosts {
	costs := make([]StageCosts, 18)
	for i := range costs {
		costs[i] = StageCosts{
			Fwd: 40 * simtime.Millisecond, Bwd: 80 * simtime.Millisecond,
			Rec: 40 * simtime.Millisecond, ActSend: 5 * simtime.Millisecond,
			GradSend: 5 * simtime.Millisecond, AllReduce: 200 * simtime.Millisecond,
			Optimizer: 10 * simtime.Millisecond,
		}
	}
	return costs
}

// sameSummary compares every summary metric of two results; the golden
// requirement is that the no-trace fast path changes nothing but the
// trace itself.
func sameSummary(t *testing.T, traced, fast Result) {
	t.Helper()
	if fast.Makespan != traced.Makespan {
		t.Errorf("Makespan: fast %v, traced %v", fast.Makespan, traced.Makespan)
	}
	if fast.PipelineSpan != traced.PipelineSpan {
		t.Errorf("PipelineSpan: fast %v, traced %v", fast.PipelineSpan, traced.PipelineSpan)
	}
	if fast.BubbleFrac != traced.BubbleFrac {
		t.Errorf("BubbleFrac: fast %v, traced %v", fast.BubbleFrac, traced.BubbleFrac)
	}
	if fast.Busy != traced.Busy {
		t.Errorf("Busy: fast %v, traced %v", fast.Busy, traced.Busy)
	}
	if fast.OpportunisticRuns != traced.OpportunisticRuns {
		t.Errorf("OpportunisticRuns: fast %d, traced %d", fast.OpportunisticRuns, traced.OpportunisticRuns)
	}
	if len(fast.StageEnds) != len(traced.StageEnds) {
		t.Fatalf("StageEnds length: fast %d, traced %d", len(fast.StageEnds), len(traced.StageEnds))
	}
	for i := range fast.StageEnds {
		if fast.StageEnds[i] != traced.StageEnds[i] {
			t.Errorf("StageEnds[%d]: fast %v, traced %v", i, fast.StageEnds[i], traced.StageEnds[i])
		}
	}
	if len(fast.Trace) != 0 {
		t.Errorf("fast path recorded %d trace spans, want 0", len(fast.Trace))
	}
	if len(traced.Trace) == 0 {
		t.Error("traced path recorded no spans")
	}
}

func TestNoTraceGoldenRulePolicy(t *testing.T) {
	for _, shape := range []struct{ p, nm int }{{1, 4}, {4, 5}, {6, 48}, {18, 100}} {
		cfg := Config{Depth: shape.p, Micros: shape.nm, Policy: schedule.Varuna, Costs: UnitCosts(shape.p, unit)}
		traced := cfg
		traced.CollectTrace = true
		sameSummary(t, mustRun(t, traced), mustRun(t, cfg))
	}
}

func TestNoTraceGoldenRuleWithJitter(t *testing.T) {
	// Jitter exercises the wake/opportunism machinery; the RNG streams
	// must stay aligned between the traced and no-trace paths.
	for seed := int64(0); seed < 5; seed++ {
		cfg := Config{
			Depth: 6, Micros: 24, Policy: schedule.Varuna, Costs: benchCosts18()[:6],
			JitterCV: 0.4, ComputeJitterCV: 0.02, Rand: simtime.NewRand(seed),
		}
		traced := cfg
		traced.CollectTrace = true
		traced.Rand = simtime.NewRand(seed)
		sameSummary(t, mustRun(t, traced), mustRun(t, cfg))
	}
}

func TestNoTraceGoldenStrictPolicies(t *testing.T) {
	depth, micros := 4, 16
	gpipe, err := schedule.GPipe(depth, micros)
	if err != nil {
		t.Fatal(err)
	}
	ofob, err := schedule.OneFOneB(depth, micros)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		policy schedule.Policy
		orders []schedule.Order
	}{
		{schedule.GPipeP, gpipe.Orders},
		{schedule.Megatron1F1B, ofob.Orders},
		{schedule.DeepSpeedP, ofob.Orders},
		{schedule.PipeDreamP, ofob.Orders},
	}
	for _, c := range cases {
		cfg := Config{Depth: depth, Micros: micros, Policy: c.policy, Orders: c.orders, Costs: benchCosts18()[:depth]}
		traced := cfg
		traced.CollectTrace = true
		sameSummary(t, mustRun(t, traced), mustRun(t, cfg))
	}
}

func TestNoTraceGoldenChunked(t *testing.T) {
	cfg := Config{Depth: 4, Micros: 20, Policy: schedule.GPipeP, Costs: UnitCosts(4, unit)}
	traced := cfg
	traced.CollectTrace = true
	a, err := RunChunked(traced, 5, schedule.GPipe)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChunked(cfg, 5, schedule.GPipe)
	if err != nil {
		t.Fatal(err)
	}
	sameSummary(t, a, b)
}

func TestPooledExecutorIsolation(t *testing.T) {
	// Back-to-back runs of different shapes through the pool must not
	// leak state: re-running a config gives bit-identical results.
	shapes := []struct{ p, nm int }{{18, 100}, {2, 3}, {6, 48}, {1, 1}, {10, 7}}
	first := make([]Result, len(shapes))
	for i, s := range shapes {
		first[i] = mustRun(t, Config{Depth: s.p, Micros: s.nm, Policy: schedule.Varuna, Costs: UnitCosts(s.p, unit)})
	}
	for i, s := range shapes {
		again := mustRun(t, Config{Depth: s.p, Micros: s.nm, Policy: schedule.Varuna, Costs: UnitCosts(s.p, unit)})
		if again.Makespan != first[i].Makespan || again.BubbleFrac != first[i].BubbleFrac {
			t.Fatalf("shape %dx%d drifted across pool reuse: %v vs %v", s.p, s.nm, again.Makespan, first[i].Makespan)
		}
	}
}

// TestExecutorBuffers: reset sizes each flat backing array once per
// run. A fresh executor reserves exactly what the run carves: per
// stage and micro-batch, three instants and three flags, plus two
// instants under SyncComm and a flag under a strict policy. A later
// reset to a smaller config allocates nothing.
func TestExecutorBuffers(t *testing.T) {
	const p, nm = 6, 40
	big, err := schedule.OneFOneB(p, nm)
	if err != nil {
		t.Fatal(err)
	}
	small, err := schedule.OneFOneB(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		policy          schedule.Policy
		orders, smaller []schedule.Order
		instants, flags int
	}{
		{schedule.Varuna, nil, nil, 3, 3},
		{schedule.DeepSpeedP, big.Orders, small.Orders, 5, 4},
	} {
		e := newExecutor()
		e.reset(Config{Depth: p, Micros: nm, Policy: c.policy, Orders: c.orders, Costs: UnitCosts(p, unit)})
		if got, want := cap(e.timeBuf), c.instants*p*nm; got != want {
			t.Errorf("%s: fresh executor reserved %d instants, want %d", c.policy.Name, got, want)
		}
		if got, want := cap(e.boolBuf), c.flags*p*nm; got != want {
			t.Errorf("%s: fresh executor reserved %d flags, want %d", c.policy.Name, got, want)
		}
		cfg := Config{Depth: 4, Micros: 10, Policy: c.policy, Orders: c.smaller, Costs: UnitCosts(4, unit)}
		if allocs := testing.AllocsPerRun(10, func() { e.reset(cfg) }); allocs != 0 {
			t.Errorf("%s: reset to a smaller config allocated %v times", c.policy.Name, allocs)
		}
	}
}

func TestMicrosLimit(t *testing.T) {
	if _, err := Run(Config{Depth: 1, Micros: 1 << 24, Policy: schedule.Varuna, Costs: UnitCosts(1, unit)}); err == nil {
		t.Fatal("Nm at the 2^24 packing limit must be rejected")
	}
}

// BenchmarkRunRuleNoTrace is the acceptance benchmark: the P=18,
// Nm=100 rule-policy simulation on the makespan-only fast path. The
// seed (traced, closure-per-event, unpooled) implementation measured
// 2979836 ns/op and 21803 allocs/op on this config.
func BenchmarkRunRuleNoTrace(b *testing.B) {
	cfg := Config{Depth: 18, Micros: 100, Policy: schedule.Varuna, Costs: benchCosts18()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunRuleTraced is the same simulation with the trace on, to
// keep the cost of CollectTrace visible.
func BenchmarkRunRuleTraced(b *testing.B) {
	cfg := Config{Depth: 18, Micros: 100, Policy: schedule.Varuna, Costs: benchCosts18(), CollectTrace: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEventCountPins pins how many events a run pushes, on the fast
// path and by brute force, for the §7.2 P=18 shape. The count is
// deterministic, so any change is a real change: a re-added no-op event
// fails here even though every result stays the same. Before the
// executor stopped scheduling wakes outside SyncComm, upstream tries on
// busy stages and arrivals at busy stages, the counts were 4776 and
// 10808 at Nm=100, and 4776 and 104408 at Nm=1000.
func TestEventCountPins(t *testing.T) {
	for _, c := range []struct {
		nm          int
		brute       bool
		want        int64
		fastForward bool
	}{
		{100, false, 3416, true},
		{100, true, 7534, false},
		{1000, false, 3416, true},
		{1000, true, 71434, false},
	} {
		cfg := Config{Depth: 18, Micros: c.nm, Policy: schedule.Varuna, Costs: benchCosts18(), DisableSteadyState: c.brute}
		e, _ := runDirect(t, cfg)
		if got := e.q.Scheduled(); got != c.want {
			t.Errorf("Nm=%d brute=%v: %d events pushed, want %d", c.nm, c.brute, got, c.want)
		}
		if e.ss.fired != c.fastForward {
			t.Errorf("Nm=%d brute=%v: fast-forward fired %v, want %v", c.nm, c.brute, e.ss.fired, c.fastForward)
		}
	}
}
