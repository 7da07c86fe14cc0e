package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/schedule"
	"repro/internal/simtime"
)

const unit = simtime.Millisecond

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func gpipeConfig(t *testing.T, depth, micros int) Config {
	t.Helper()
	s, err := schedule.GPipe(depth, micros)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Depth: depth, Micros: micros, Policy: schedule.GPipeP, Orders: s.Orders, Costs: UnitCosts(depth, unit), CollectTrace: true}
}

func TestVarunaBeatsGPipeFigure4(t *testing.T) {
	// Figure 4: for 4 stages and 5 micro-batches with B=2F, Varuna's
	// schedule completes ahead of GPipe ("uses 1 less time unit").
	varuna := mustRun(t, Config{Depth: 4, Micros: 5, Policy: schedule.Varuna, Costs: UnitCosts(4, unit)})
	gpipe := mustRun(t, gpipeConfig(t, 4, 5))
	if varuna.PipelineSpan >= gpipe.PipelineSpan {
		t.Fatalf("Varuna %v must beat GPipe %v", varuna.PipelineSpan, gpipe.PipelineSpan)
	}
	// The gap should be about one unit (F duration).
	gap := gpipe.PipelineSpan - varuna.PipelineSpan
	if gap < unit/2 || gap > 3*unit {
		t.Fatalf("gap %v, want ≈1 unit", gap)
	}
}

func TestVarunaLastStageNoRecompute(t *testing.T) {
	// §3.2: "the last stage (S4) in Varuna does not perform any
	// recompute".
	res := mustRun(t, Config{Depth: 4, Micros: 5, Policy: schedule.Varuna, Costs: UnitCosts(4, unit), CollectTrace: true})
	for _, span := range res.Trace {
		if span.Stage == 3 && span.Task.Kind == schedule.Recompute {
			t.Fatalf("last stage ran %v", span.Task)
		}
	}
}

func TestVarunaLastStageAlternates(t *testing.T) {
	s, err := VarunaOrders(4, 5, UnitCosts(4, unit))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Orders[3].String(); got != "F1 B1 F2 B2 F3 B3 F4 B4 F5 B5" {
		t.Fatalf("last stage order = %s", got)
	}
}

func TestVarunaOrdersInterspersedForwards(t *testing.T) {
	// §3.2: "forward passes are interspersed in Varuna throughout the
	// schedule (see stage 3)" — the penultimate stage must run some
	// backward before its last forward.
	s, err := VarunaOrders(4, 5, UnitCosts(4, unit))
	if err != nil {
		t.Fatal(err)
	}
	o := s.Orders[2]
	firstB, lastF := -1, -1
	for i, task := range o {
		if task.Kind == schedule.Backward && firstB == -1 {
			firstB = i
		}
		if task.Kind == schedule.Forward {
			lastF = i
		}
	}
	if firstB == -1 || lastF < firstB {
		t.Fatalf("stage 2 order %s has no interspersed forwards", o)
	}
}

func TestVarunaOrdersValidate(t *testing.T) {
	for _, shape := range []struct{ d, nm int }{{2, 2}, {4, 5}, {4, 16}, {8, 3}, {6, 24}, {1, 4}} {
		s, err := VarunaOrders(shape.d, shape.nm, UnitCosts(shape.d, unit))
		if err != nil {
			t.Fatalf("%dx%d: %v", shape.d, shape.nm, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%dx%d: %v", shape.d, shape.nm, err)
		}
	}
}

func TestStrictGPipeExecution(t *testing.T) {
	res := mustRun(t, gpipeConfig(t, 4, 5))
	// Lower bound: last stage does 5F+5B+4R = 5+10+4 = 19 units plus
	// 3 units of fill. GPipe must take at least that.
	if res.PipelineSpan < 22*unit {
		t.Fatalf("GPipe span %v implausibly fast", res.PipelineSpan)
	}
	// All tasks executed: 4 stages × (5F + 5B) + 3 stages... recompute
	// count from the schedule.
	wantTasks := 4*10 + 16
	if len(res.Trace) != wantTasks {
		t.Fatalf("trace has %d tasks, want %d", len(res.Trace), wantTasks)
	}
}

func TestDeterminismWithJitter(t *testing.T) {
	run := func() Result {
		return mustRun(t, Config{
			Depth: 4, Micros: 8, Policy: schedule.Varuna, CollectTrace: true,
			Costs: UnitCosts(4, unit), JitterCV: 0.3, Rand: simtime.NewRand(99),
		})
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || len(a.Trace) != len(b.Trace) {
		t.Fatal("same seed must give identical runs")
	}
}

func TestMoreMicroBatchesAmortizeBubble(t *testing.T) {
	// Observation 3 / GPipe theory: bubble fraction shrinks as Nm grows.
	few := mustRun(t, Config{Depth: 6, Micros: 6, Policy: schedule.Varuna, Costs: UnitCosts(6, unit)})
	many := mustRun(t, Config{Depth: 6, Micros: 48, Policy: schedule.Varuna, Costs: UnitCosts(6, unit)})
	if many.BubbleFrac >= few.BubbleFrac {
		t.Fatalf("bubble with Nm=48 (%.3f) must be below Nm=6 (%.3f)", many.BubbleFrac, few.BubbleFrac)
	}
	if many.BubbleFrac > 0.25 {
		t.Fatalf("bubble %.3f too high at Nm=48", many.BubbleFrac)
	}
}

func TestSyncCommSlower(t *testing.T) {
	depth, micros := 4, 8
	costs := UnitCosts(depth, unit)
	for i := range costs {
		costs[i].ActSend = unit / 2 // substantial transfers
		costs[i].GradSend = unit / 2
	}
	s, err := schedule.OneFOneB(depth, micros)
	if err != nil {
		t.Fatal(err)
	}
	async := mustRun(t, Config{Depth: depth, Micros: micros, Policy: schedule.Megatron1F1B, Orders: s.Orders, Costs: costs})
	sync := mustRun(t, Config{Depth: depth, Micros: micros, Policy: schedule.DeepSpeedP, Orders: s.Orders, Costs: costs})
	if sync.PipelineSpan <= async.PipelineSpan {
		t.Fatalf("sync comm %v must be slower than overlapped %v", sync.PipelineSpan, async.PipelineSpan)
	}
}

func TestVarunaToleratesJitterBetterThanGPipe(t *testing.T) {
	// Observation 3 / Table 5: as the network gets slower and noisier,
	// the gap between Varuna and memory-chunked GPipe widens.
	depth, micros := 4, 32
	costsAt := func(slow float64) []StageCosts {
		costs := UnitCosts(depth, unit)
		for i := range costs {
			costs[i].ActSend = simtime.Duration(float64(unit) * slow / 2)
			costs[i].GradSend = simtime.Duration(float64(unit) * slow / 2)
		}
		return costs
	}
	const reps = 20
	varunaMean := func(slow float64) float64 {
		var sum float64
		for r := int64(0); r < reps; r++ {
			res := mustRun(t, Config{Depth: depth, Micros: micros, Policy: schedule.Varuna,
				Costs: costsAt(slow), JitterCV: 0.4, Rand: simtime.NewRand(1 + r)})
			sum += float64(res.PipelineSpan)
		}
		return sum / reps
	}
	gpipeMean := func(slow float64) float64 {
		var sum float64
		for r := int64(0); r < reps; r++ {
			res, err := RunChunked(Config{Depth: depth, Micros: micros, Policy: schedule.GPipeP,
				Costs: costsAt(slow), JitterCV: 0.4, Rand: simtime.NewRand(1 + r)}, 8, schedule.GPipe)
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(res.PipelineSpan)
		}
		return sum / reps
	}
	gapAt := func(slow float64) float64 { return gpipeMean(slow) / varunaMean(slow) }
	fast, slowNet := gapAt(0.2), gapAt(2.0)
	if fast < 1.0 {
		t.Fatalf("GPipe/Varuna ratio %v < 1 on fast net", fast)
	}
	if slowNet <= fast {
		t.Fatalf("gap must widen on slow nets: fast %.3f, slow %.3f", fast, slowNet)
	}
}

func TestRunChunkedBasics(t *testing.T) {
	cfg := Config{Depth: 4, Micros: 20, Policy: schedule.GPipeP, Costs: UnitCosts(4, unit), CollectTrace: true}
	whole, err := RunChunked(cfg, 20, schedule.GPipe)
	if err != nil {
		t.Fatal(err)
	}
	split, err := RunChunked(cfg, 5, schedule.GPipe)
	if err != nil {
		t.Fatal(err)
	}
	if split.PipelineSpan <= whole.PipelineSpan {
		t.Fatalf("4 chunks (%v) must be slower than 1 (%v): extra fill/drain", split.PipelineSpan, whole.PipelineSpan)
	}
	// Every forward and backward executed exactly once across chunks
	// (recompute counts differ: each chunk's last micro stays hot).
	count := func(res Result, k schedule.Kind) int {
		n := 0
		for _, span := range res.Trace {
			if span.Task.Kind == k {
				n++
			}
		}
		return n
	}
	for _, k := range []schedule.Kind{schedule.Forward, schedule.Backward} {
		if count(split, k) != 80 || count(whole, k) != 80 {
			t.Fatalf("%v counts: split %d whole %d, want 80", k, count(split, k), count(whole, k))
		}
	}
	if _, err := RunChunked(cfg, 0, schedule.GPipe); err == nil {
		t.Fatal("chunk 0 must fail")
	}
	if _, err := RunChunked(Config{Depth: 2, Micros: 4, Policy: schedule.Varuna, Costs: UnitCosts(2, unit)}, 2, schedule.GPipe); err == nil {
		t.Fatal("rule policy must be rejected")
	}
}

func TestGPipeChunk(t *testing.T) {
	if got := GPipeChunk(100, 10, 4); got != 10 {
		t.Fatalf("chunk = %d, want 10", got)
	}
	if got := GPipeChunk(10, 10, 4); got != 4 {
		t.Fatalf("chunk below depth must clamp: %d", got)
	}
	if got := GPipeChunk(100, 0, 4); got != 4 {
		t.Fatalf("zero stash per micro must clamp to depth: %d", got)
	}
}

func TestOpportunisticPullForward(t *testing.T) {
	// A strict Varuna-order replay with deviation enabled must pull
	// forwards while gradients are late, and win under heavy jitter.
	depth, micros := 4, 16
	orders, err := VarunaOrders(depth, micros, UnitCosts(depth, unit))
	if err != nil {
		t.Fatal(err)
	}
	costs := UnitCosts(depth, unit)
	for i := range costs {
		costs[i].ActSend = unit
		costs[i].GradSend = unit
	}
	strictPolicy := schedule.Policy{Name: "varuna-static"}
	devPolicy := schedule.Policy{Name: "varuna-static+opportunism", Opportunistic: true}
	var strictSum, devSum float64
	var opport int
	const reps = 25
	for r := int64(0); r < reps; r++ {
		strict := mustRun(t, Config{Depth: depth, Micros: micros, Policy: strictPolicy, Orders: orders.Orders, Costs: costs, JitterCV: 0.5, Rand: simtime.NewRand(100 + r)})
		dev := mustRun(t, Config{Depth: depth, Micros: micros, Policy: devPolicy, Orders: orders.Orders, Costs: costs, JitterCV: 0.5, Rand: simtime.NewRand(100 + r)})
		strictSum += float64(strict.PipelineSpan)
		devSum += float64(dev.PipelineSpan)
		opport += dev.OpportunisticRuns
	}
	if opport == 0 {
		t.Fatal("deviation never triggered under heavy jitter")
	}
	if devSum > strictSum*1.02 {
		t.Fatalf("opportunism hurt: dev %.0f vs strict %.0f", devSum, strictSum)
	}
}

// TestConfigValidation: malformed configs are errors. Negative costs,
// a negative stash cap and speed factors that are not finite and
// positive name the stage and the field; Run used to accept them (a
// negative Fwd returned a makespan, a NaN speed factor went through an
// undefined float-to-int conversion, and MaxInFlight -1 was reported
// as a deadlock).
func TestConfigValidation(t *testing.T) {
	cost := func(mod func(*StageCosts)) func(*Config) {
		return func(c *Config) { mod(&c.Costs[1]) }
	}
	speed := func(f float64) func(*Config) {
		return func(c *Config) { c.SpeedFactor = []float64{1, f, 1, 1} }
	}
	for _, tc := range []struct {
		name string
		mod  func(*Config)
		want []string // substrings of the error
	}{
		{"depth 0", func(c *Config) { c.Depth = 0 }, nil},
		{"cost length mismatch", func(c *Config) { c.Costs = UnitCosts(1, unit) }, nil},
		{"jitter without rand", func(c *Config) { c.JitterCV = 0.5 }, nil},
		{"strict policy without orders", func(c *Config) { c.Policy = schedule.GPipeP }, nil},
		{"speed factor length mismatch", func(c *Config) { c.SpeedFactor = []float64{1} }, nil},
		{"negative Fwd", cost(func(c *StageCosts) { c.Fwd = -unit }), []string{"stage 1", "Fwd"}},
		{"negative Bwd", cost(func(c *StageCosts) { c.Bwd = -1 }), []string{"stage 1", "Bwd"}},
		{"negative Rec", cost(func(c *StageCosts) { c.Rec = -1 }), []string{"stage 1", "Rec"}},
		{"negative ActSend", cost(func(c *StageCosts) { c.ActSend = -1 }), []string{"stage 1", "ActSend"}},
		{"negative GradSend", cost(func(c *StageCosts) { c.GradSend = -1 }), []string{"stage 1", "GradSend"}},
		{"negative AllReduce", cost(func(c *StageCosts) { c.AllReduce = -1 }), []string{"stage 1", "AllReduce"}},
		{"negative Optimizer", cost(func(c *StageCosts) { c.Optimizer = -1 }), []string{"stage 1", "Optimizer"}},
		{"negative MaxInFlight", func(c *Config) { c.MaxInFlight = -1 }, []string{"MaxInFlight"}},
		{"NaN speed", speed(math.NaN()), []string{"stage 1", "SpeedFactor"}},
		{"+Inf speed", speed(math.Inf(1)), []string{"stage 1", "SpeedFactor"}},
		{"-Inf speed", speed(math.Inf(-1)), []string{"stage 1", "SpeedFactor"}},
		{"zero speed", speed(0), []string{"stage 1", "SpeedFactor"}},
		{"negative speed", speed(-1.5), []string{"stage 1", "SpeedFactor"}},
	} {
		cfg := Config{Depth: 4, Micros: 16, Policy: schedule.Varuna, Costs: UnitCosts(4, unit)}
		tc.mod(&cfg)
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: Run accepted the config", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, w)
			}
		}
		if _, err := EstimateMakespan(cfg); err == nil {
			t.Errorf("%s: EstimateMakespan accepted the config", tc.name)
		}
	}
	// Zero costs, a zero stash cap (the 2·Depth default) and slowed or
	// sped-up stages stay valid.
	ok := Config{Depth: 4, Micros: 16, Policy: schedule.Varuna, Costs: make([]StageCosts, 4),
		SpeedFactor: []float64{1, 0.5, 3, 1e-3}}
	if _, err := Run(ok); err != nil {
		t.Errorf("valid edge config rejected: %v", err)
	}
}

func TestStragglerSlowsPipeline(t *testing.T) {
	base := mustRun(t, Config{Depth: 4, Micros: 8, Policy: schedule.Varuna, Costs: UnitCosts(4, unit)})
	slow := mustRun(t, Config{Depth: 4, Micros: 8, Policy: schedule.Varuna, Costs: UnitCosts(4, unit), SpeedFactor: []float64{1, 1.5, 1, 1}})
	if float64(slow.PipelineSpan) < 1.2*float64(base.PipelineSpan) {
		t.Fatalf("30%%+ straggler barely moved span: %v vs %v", slow.PipelineSpan, base.PipelineSpan)
	}
}

func TestMakespanIncludesAllReduce(t *testing.T) {
	costs := UnitCosts(4, unit)
	for i := range costs {
		costs[i].AllReduce = 10 * unit
		costs[i].Optimizer = unit
	}
	res := mustRun(t, Config{Depth: 4, Micros: 5, Policy: schedule.Varuna, Costs: costs})
	if res.Makespan < res.PipelineSpan+11*unit {
		t.Fatalf("makespan %v must include allreduce+optimizer after span %v", res.Makespan, res.PipelineSpan)
	}
}

func TestNoFlushSkipsAllReduce(t *testing.T) {
	costs := UnitCosts(4, 5)
	for i := range costs {
		costs[i].AllReduce = 50 * unit
	}
	s, err := schedule.OneFOneB(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Config{Depth: 4, Micros: 5, Policy: schedule.PipeDreamP, Orders: s.Orders, Costs: costs})
	if res.Makespan >= res.PipelineSpan+50*unit {
		t.Fatal("NoFlush policy must not pay the allreduce")
	}
}

func TestRandomShapesNeverDeadlock(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(d, nm, seed uint8) bool {
		depth := int(d%10) + 1
		micros := int(nm%32) + 1
		// Rule-based Varuna.
		if _, err := Run(Config{Depth: depth, Micros: micros, Policy: schedule.Varuna,
			Costs: UnitCosts(depth, unit), JitterCV: 0.3, Rand: simtime.NewRand(int64(seed))}); err != nil {
			return false
		}
		// Strict 1F1B.
		s, err := schedule.OneFOneB(depth, micros)
		if err != nil {
			return false
		}
		if _, err := Run(Config{Depth: depth, Micros: micros, Policy: schedule.Megatron1F1B,
			Orders: s.Orders, Costs: UnitCosts(depth, unit), JitterCV: 0.3, Rand: simtime.NewRand(int64(seed))}); err != nil {
			return false
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestTraceWellFormed(t *testing.T) {
	res := mustRun(t, Config{Depth: 4, Micros: 8, Policy: schedule.Varuna, Costs: UnitCosts(4, unit), CollectTrace: true})
	var lastEnd [4]simtime.Time
	for _, span := range res.Trace {
		if span.End <= span.Start {
			t.Fatalf("empty span %+v", span)
		}
		if span.Start < lastEnd[span.Stage] {
			t.Fatalf("overlapping tasks on stage %d", span.Stage)
		}
		lastEnd[span.Stage] = span.End
	}
}

func TestSingleStagePipeline(t *testing.T) {
	// Degenerate P=1: pure gradient accumulation, F then B per micro.
	res := mustRun(t, Config{Depth: 1, Micros: 4, Policy: schedule.Varuna, Costs: UnitCosts(1, unit), CollectTrace: true})
	if len(res.Trace) != 8 {
		t.Fatalf("P=1 trace = %d tasks, want 8 (4F+4B)", len(res.Trace))
	}
	if res.BubbleFrac > 0.01 {
		t.Fatalf("P=1 must have no bubble, got %.3f", res.BubbleFrac)
	}
}

func countTasks(res Result, k schedule.Kind) map[int]int {
	out := map[int]int{}
	for _, span := range res.Trace {
		if span.Task.Kind == k {
			out[span.Stage*1000+span.Task.Micro]++
		}
	}
	return out
}

func TestWorkConservationProperty(t *testing.T) {
	// Every (stage, micro) pair runs exactly one forward and one
	// backward, across random shapes, jitter levels and policies.
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(func(d, nm, seed uint8, jitter bool) bool {
		depth := int(d%8) + 1
		micros := int(nm%24) + 1
		var cv float64
		var rng *simtime.Rand
		if jitter {
			cv = 0.35
			rng = simtime.NewRand(int64(seed))
		}
		check := func(res Result) bool {
			for _, k := range []schedule.Kind{schedule.Forward, schedule.Backward} {
				counts := countTasks(res, k)
				if len(counts) != depth*micros {
					return false
				}
				for _, c := range counts {
					if c != 1 {
						return false
					}
				}
			}
			// Recompute at most once per (stage, micro).
			for _, c := range countTasks(res, schedule.Recompute) {
				if c > 1 {
					return false
				}
			}
			return true
		}
		res, err := Run(Config{Depth: depth, Micros: micros, Policy: schedule.Varuna, CollectTrace: true,
			Costs: UnitCosts(depth, unit), JitterCV: cv, Rand: rng})
		if err != nil || !check(res) {
			return false
		}
		o, err := schedule.OneFOneB(depth, micros)
		if err != nil {
			return false
		}
		res2, err := Run(Config{Depth: depth, Micros: micros, Policy: schedule.Megatron1F1B, CollectTrace: true,
			Orders: o.Orders, Costs: UnitCosts(depth, unit), JitterCV: cv, Rand: rng})
		return err == nil && check(res2)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestEstimateMakespanIsRun: the estimate is the makespan of one Run
// of the same config, on every pinned config — jittered, brute-force
// and strict-opportunistic ones included — and the two fail together.
// Each side gets a fresh config, so jittered ones draw from
// identically seeded sources.
func TestEstimateMakespanIsRun(t *testing.T) {
	for i := 0; i < resultPinCount; i++ {
		c := resultPinCase(i)
		est, estErr := EstimateMakespan(c.build())
		res, runErr := Run(c.build())
		if (estErr == nil) != (runErr == nil) {
			t.Errorf("%s: estimate error %v, Run error %v", c.label, estErr, runErr)
		} else if est != res.Makespan {
			t.Errorf("%s: estimate %v, Run makespan %v", c.label, est, res.Makespan)
		}
	}
	if _, err := EstimateMakespan(Config{Depth: 0}); err == nil {
		t.Fatal("bad depth must fail")
	}
}

func TestComputeJitterSeparate(t *testing.T) {
	// Network jitter must not perturb kernels and vice versa.
	costs := UnitCosts(4, unit)
	netOnly := mustRun(t, Config{Depth: 4, Micros: 8, Policy: schedule.Varuna,
		Costs: costs, JitterCV: 0.4, Rand: simtime.NewRand(3)})
	deterministic := mustRun(t, Config{Depth: 4, Micros: 8, Policy: schedule.Varuna, Costs: costs})
	// With tiny transfer times (unit/100) the net jitter barely moves
	// the makespan; compute jitter would move it a lot.
	ratio := float64(netOnly.PipelineSpan) / float64(deterministic.PipelineSpan)
	if ratio > 1.05 {
		t.Fatalf("network jitter on tiny transfers moved makespan %.3fx — leaking into kernels?", ratio)
	}
	compute := mustRun(t, Config{Depth: 4, Micros: 8, Policy: schedule.Varuna,
		Costs: costs, ComputeJitterCV: 0.4, Rand: simtime.NewRand(3)})
	if compute.PipelineSpan == deterministic.PipelineSpan {
		t.Fatal("compute jitter had no effect")
	}
}
