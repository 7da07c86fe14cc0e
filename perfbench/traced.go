package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/autoconfig"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// cpuModules are the modules whose CPU share the traced run reports.
// "other" is every remaining repro/internal module; with
// "unattributed" the shares sum to 1.
var cpuModules = []string{
	"autoconfig", "calibrate", "sim", "simtime", "manager", "testbed", "restart",
	"fleet", "scenario", "spot", "price", "model", "obs", "gen2", "engine", "nn",
	"runtime", "other", unattributed,
}

// perLayer lists the traced run's metrics, in BENCHMARK.json order. A
// layer the workload does not exercise reads 0.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"scenario.parse_ms", "ms"},
		{"scenario.compile_ms", "ms"},
		{"autoconfig.sweeps", "count"},
		{"autoconfig.decision_hits", "count"},
		{"autoconfig.decision_misses", "count"},
		{"autoconfig.cost_hits", "count"},
		{"autoconfig.cost_misses", "count"},
		{"autoconfig.cost_hit_ratio", "ratio"},
		{"autoconfig.cost_lookups", "count"},
		{"autoconfig.stagecosts_builds", "count"},
		{"autoconfig.cost_evictions", "count"},
		{"autoconfig.sweep_ms_total", "ms"},
		{"autoconfig.sweep_ms_mean", "ms"},
		{"decision_ms_p50", "ms"},
		{"decision_ms_tail", "ms"},
		{"calibrate.stagecosts_ms_total", "ms"},
		{"calibrate.stagecosts_us_p50", "us"},
		{"sim.estimate_calls", "count"},
		{"sim.estimate_ms_total", "ms"},
		{"sim.estimate_us_p50", "us"},
		{"sim.estimate_us_tail", "us"},
		{"sim.deep_share", "ratio"},
		{"sim.replay_mismatches", "count"},
		{"manager.self_ms", "ms"},
		{"manager.decisions", "count"},
		{"fleet.ticks", "count"},
		{"fleet.tick_ms_total", "ms"},
		{"fleet.leases", "count"},
		{"fleet.revocations", "count"},
		{"fleet.cascades", "count"},
		{"obs.overhead_frac", "ratio"},
		{"obs.spans", "count"},
		{"engine.step_ms_p50", "ms"},
		{"engine.step_ms_tail", "ms"},
		{"engine.speedup_1x1", "ratio"},
		{"nn.block_fwd_us", "us"},
		{"nn.block_bwd_us", "us"},
		{"nn.adam_step_us", "us"},
	}
	for _, m := range cpuModules {
		out = append(out, struct{ name, unit string }{m + ".cpu_share", "ratio"})
	}
	return out
}()

// traced makes the workload's traced run: spans around the benchmark's own
// calls into each layer, the program's existing obs hooks, and a CPU
// profile of the benchmark itself. Everything it reports is per layer.
func traced(w *workload, seed int64, out io.Writer) (*result, error) {
	r, err := w.newRunner(input{seed, 0})
	if err != nil {
		return nil, err
	}
	res := newResult()
	tr := newTracer()
	var prof []byte
	switch r := r.(type) {
	case *scenarioRunner:
		prof, err = traceScenario(r, tr, res, out)
	case *trainRunner:
		prof, err = traceTrain(r, tr, res, out)
	case *decisionRunner:
		rs := []*decisionRunner{r}
		for k := 1; k < w.inputs; k++ {
			next, err := w.newRunner(input{seed, k})
			if err != nil {
				return nil, err
			}
			rs = append(rs, next.(*decisionRunner))
		}
		prof, err = traceDecisions(rs, tr, res, out)
	}
	if err != nil {
		return nil, err
	}

	shares, samples, err := cpuShares(prof)
	if err != nil {
		return nil, err
	}
	listed := map[string]bool{}
	for _, m := range cpuModules {
		listed[m] = true
	}
	for m, s := range shares {
		if !listed[m] {
			m = "other"
		}
		res.set(m+".cpu_share", res.Metrics[m+".cpu_share"].Value+s, "ratio")
	}
	fmt.Fprintf(out, "cpu profile: %d samples, leaf frames attributed per module\n", samples)
	for _, l := range perLayer {
		if _, ok := res.Metrics[l.name]; !ok {
			res.set(l.name, 0, l.unit)
		}
	}

	fmt.Fprintf(out, "workload %s seed %d traced, GOMAXPROCS %d\n", w.name, seed, runtime.GOMAXPROCS(0))
	printSpans(out, tr)
	if path, err := tr.writeSpans(w.name); err != nil {
		fmt.Fprintf(out, "spans not written: %v\n", err)
	} else {
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	return res, nil
}

// profiled runs f under the CPU profiler and returns the gzipped
// profile.
func profiled(f func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := f()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// printSpans prints each span name's count, total and self time.
func printSpans(out io.Writer, tr *tracer) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	var names []string
	for id, s := range tr.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += tr.self(id)
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(out, "span %-22s n=%-6d total %10.3f ms  self %10.3f ms\n", n, a.n, ms(a.total), ms(a.self))
	}
}

// plannerMetrics reports the planners' own counters, summed over
// tenants, and the count and sum of the existing wall.planner.sweep_us
// histogram (its quantiles are log2 bucket bounds and are not used).
func plannerMetrics(res *result, refs []plannerRef, snap obs.Snap) float64 {
	var st autoconfig.PlannerStats
	for _, p := range refs {
		s := p.pl.Stats()
		st.Sweeps += s.Sweeps
		st.DecisionHits += s.DecisionHits
		st.DecisionMisses += s.DecisionMisses
		st.CostHits += s.CostHits
		st.CostMisses += s.CostMisses
		st.CostComputes += s.CostComputes
		st.CostEvictions += s.CostEvictions
	}
	res.set("autoconfig.sweeps", float64(st.Sweeps), "count")
	res.set("autoconfig.decision_hits", float64(st.DecisionHits), "count")
	res.set("autoconfig.decision_misses", float64(st.DecisionMisses), "count")
	res.set("autoconfig.cost_hits", float64(st.CostHits), "count")
	res.set("autoconfig.cost_misses", float64(st.CostMisses), "count")
	res.set("autoconfig.cost_hit_ratio", st.HitRate(), "ratio")
	res.set("autoconfig.cost_lookups", float64(st.CostHits+st.CostMisses), "count")
	res.set("autoconfig.stagecosts_builds", float64(st.CostComputes), "count")
	res.set("autoconfig.cost_evictions", float64(st.CostEvictions), "count")
	h := snap.Histograms["wall.planner.sweep_us"]
	totalMS := h.Mean * float64(h.Count) / 1000
	res.set("autoconfig.sweep_ms_total", totalMS, "ms")
	if h.Count > 0 {
		res.set("autoconfig.sweep_ms_mean", totalMS/float64(h.Count), "ms")
	}
	return totalMS
}

func traceScenario(r *scenarioRunner, tr *tracer, res *result, out io.Writer) ([]byte, error) {
	// An untraced run first: the base of the obs overhead.
	if err := r.setup(); err != nil {
		return nil, err
	}
	m, err := timedRun(r)
	if err != nil {
		return nil, err
	}
	res.ops(r.check())

	id := tr.begin("scenario.parse", -1)
	parsed, err := r.parse()
	parseD := tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("scenario.compile", -1)
	err = r.compile(parsed)
	compileD := tr.end(id)
	if err != nil {
		return nil, err
	}
	otr, met := obs.NewTracer(), obs.NewMetrics()
	r.observe(otr, met)
	freshHeap()
	var runD time.Duration
	prof, err := profiled(func() error {
		var err error
		runD = tr.call("scenario.run", -1, func() { err = r.run() })
		return err
	})
	if err != nil {
		return nil, err
	}
	res.ops(r.check())

	res.set("scenario.parse_ms", ms(parseD), "ms")
	res.set("scenario.compile_ms", ms(compileD), "ms")
	snap := met.Snapshot(obs.All)
	sweepMS := plannerMetrics(res, r.planners(), snap)
	res.set("manager.self_ms", ms(runD)-sweepMS, "ms")
	res.set("manager.decisions", float64(r.decisions()), "count")
	tick := snap.Histograms["wall.arbiter.tick_us"]
	res.set("fleet.ticks", float64(tick.Count), "count")
	res.set("fleet.tick_ms_total", tick.Mean*float64(tick.Count)/1000, "ms")
	a := r.res.Report.Arbiter
	res.set("fleet.leases", float64(a.Leases), "count")
	res.set("fleet.revocations", float64(a.Revocations), "count")
	res.set("fleet.cascades", float64(a.Cascades), "count")
	res.set("obs.overhead_frac", runD.Seconds()/m.seconds-1, "ratio")
	res.set("obs.spans", float64(otr.Len()), "count")
	fmt.Fprintf(out, "scenario.run traced %.3f s vs untraced %.3f s\n", runD.Seconds(), m.seconds)

	var rp replay
	for _, p := range r.planners() {
		if err := rp.run(p, tr); err != nil {
			return nil, err
		}
	}
	rp.report(res, out)
	return prof, nil
}

// tracedSteps is how many engine steps the traced nn-train run times:
// enough for a tail percentile with ten samples beyond it.
const tracedSteps = 40

func traceTrain(r *trainRunner, tr *tracer, res *result, out io.Writer) ([]byte, error) {
	id := tr.begin("engine.new", -1)
	err := r.setup()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	freshHeap()
	prof, err := profiled(func() error {
		root := tr.begin("nn-train", -1)
		r.losses = r.losses[:0]
		for i := 0; i < tracedSteps; i++ {
			var l float64
			tr.call("engine.step", root, func() { l = r.eng.Step() })
			r.losses = append(r.losses, l)
		}
		tr.end(root)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.ops(r.check())
	steps := durationsMS(tr.durations("engine.step"))
	res.set("engine.step_ms_p50", median(steps), "ms")
	if pct, v, ok := tail(steps); ok {
		res.set("engine.step_ms_tail", v, "ms")
		fmt.Fprintf(out, "engine.step_ms_tail is p%d of n=%d\n", pct, len(steps))
	}

	// The plain single-worker baseline trains the same task at P=1 D=1;
	// a fixed global batch makes its losses the pipeline's to rounding.
	cfg := r.cfg
	cfg.P, cfg.D = 1, 1
	one, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	var oneMS []float64
	failed := 0
	const oneSteps = 10
	for i := 0; i < oneSteps; i++ {
		var l float64
		oneMS = append(oneMS, ms(tr.call("engine.step_1x1", -1, func() { l = one.Step() })))
		if !sameToRounding(l, r.losses[i]) {
			fmt.Fprintf(out, "1x1 step %d loss %.17g, pipeline %.17g\n", i, l, r.losses[i])
			failed++
		}
	}
	res.ops(oneSteps, failed)
	res.set("engine.speedup_1x1", median(oneMS)/median(steps), "ratio")

	probeNN(tr, r.cfg, res)
	return prof, nil
}

// probeNN times one transformer block's Forward and Backward at the
// workload's micro-batch shape, and one Adam step over the whole
// model's parameters.
func probeNN(tr *tracer, cfg engine.Config, res *result) {
	const reps = 200
	g := cfg.GPT
	rng := rand.New(rand.NewSource(1))
	blk := nn.NewBlock("probe", g.Dim, g.SeqLen, g.MLPMult, rng)
	x := nn.NewMatrix(cfg.MicroBatch*g.SeqLen, g.Dim)
	dy := nn.NewMatrix(cfg.MicroBatch*g.SeqLen, g.Dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		dy.Data[i] = rng.NormFloat64()
	}
	var fwd, bwd []float64
	for i := 0; i < reps; i++ {
		var ctx nn.Ctx
		fwd = append(fwd, us(tr.call("nn.block.forward", -1, func() { _, ctx = blk.Forward(x) })))
		bwd = append(bwd, us(tr.call("nn.block.backward", -1, func() { blk.Backward(ctx, dy) })))
	}
	var params []*nn.Param
	for _, l := range nn.BuildGPT(g) {
		params = append(params, l.Params()...)
	}
	opt := nn.NewAdam(cfg.LR)
	var adam []float64
	for i := 0; i < reps; i++ {
		adam = append(adam, us(tr.call("nn.adam.step", -1, func() { opt.Step(params) })))
	}
	res.set("nn.block_fwd_us", median(fwd), "us")
	res.set("nn.block_bwd_us", median(bwd), "us")
	res.set("nn.adam_step_us", median(adam), "us")
}

// traceDecisions walks every input of the run, so the decision tail
// has enough samples; the sweep replay covers input 0's planner.
func traceDecisions(rs []*decisionRunner, tr *tracer, res *result, out io.Writer) ([]byte, error) {
	// An untraced walk first: the base of the obs overhead.
	first := rs[0]
	if err := first.setup(); err != nil {
		return nil, err
	}
	m, err := timedRun(first)
	if err != nil {
		return nil, err
	}
	res.ops(first.check())

	met := obs.NewMetrics()
	var refs []plannerRef
	for _, r := range rs {
		r.missMS = nil
		id := tr.begin("core.newjob", -1)
		err := r.setup()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		pl := r.job.Planner()
		pl.SetObserver(met)
		refs = append(refs, plannerRef{pl, r.job.Inputs(), r.job.Testbed()})
	}
	freshHeap()
	var firstWalk time.Duration
	prof, err := profiled(func() error {
		for i, r := range rs {
			root := tr.begin("decisions", -1)
			r.decide(tr, root)
			if d := tr.end(root); i == 0 {
				firstWalk = d
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var missMS []float64
	for _, r := range rs {
		res.ops(r.check())
		missMS = append(missMS, r.missMS...)
	}

	plannerMetrics(res, refs, met.Snapshot(obs.All))
	res.set("decision_ms_p50", median(missMS), "ms")
	if pct, v, ok := tail(missMS); ok {
		res.set("decision_ms_tail", v, "ms")
		fmt.Fprintf(out, "decision_ms_tail is p%d of n=%d memo misses\n", pct, len(missMS))
	}
	res.set("obs.overhead_frac", firstWalk.Seconds()/m.seconds-1, "ratio")
	fmt.Fprintf(out, "decision walk traced %.3f s vs untraced %.3f s\n", firstWalk.Seconds(), m.seconds)

	var rp replay
	if err := rp.run(refs[0], tr); err != nil {
		return nil, err
	}
	rp.report(res, out)
	return prof, nil
}

// deepDepth is the pipeline depth from which a candidate counts as
// deep: the precessing regime the steady-state detector cannot
// fast-forward.
const deepDepth = 64

// replay re-derives every planner cost-cache entry serially, outside
// any timed region: calibrate.Params.StageCosts for the entry's stages
// and sim.EstimateMakespan on its cached costs. Each replayed value
// must equal the cached one.
type replay struct {
	costUS, estUS       []float64
	estTotal, deepTotal time.Duration
	costTotal           time.Duration
	entries, mismatches int
}

func (rp *replay) run(p plannerRef, tr *tracer) error {
	data, err := p.pl.ExportState()
	if err != nil {
		return err
	}
	var st autoconfig.PlannerState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("decoding the planner state: %w", err)
	}
	root := tr.begin("replay", -1)
	defer tr.end(root)
	for _, e := range st.Costs {
		stages, err := model.Partition(p.in.Spec, p.in.Cuts, e.P, true)
		if err != nil {
			return err
		}
		flags := p.tb.InterBoundaryFlags(e.P)
		var costs []sim.StageCosts
		dc := tr.call("calibrate.stagecosts", root, func() {
			costs, err = p.in.Params.StageCosts(p.in.Spec, stages, e.M, e.D, flags)
		})
		if err != nil {
			return err
		}
		var est simtime.Duration
		de := tr.call("sim.estimate", root, func() {
			est, err = sim.EstimateMakespan(sim.Config{Depth: e.P, Micros: e.Nm, Policy: schedule.Varuna, Costs: e.Costs})
		})
		if err != nil {
			return err
		}
		rp.entries++
		if est != e.Est || !reflect.DeepEqual(costs, e.Costs) {
			rp.mismatches++
		}
		rp.costUS = append(rp.costUS, us(dc))
		rp.estUS = append(rp.estUS, us(de))
		rp.costTotal += dc
		rp.estTotal += de
		if e.P >= deepDepth {
			rp.deepTotal += de
		}
	}
	return nil
}

func (rp *replay) report(res *result, out io.Writer) {
	res.ops(rp.entries, rp.mismatches)
	res.set("calibrate.stagecosts_ms_total", ms(rp.costTotal), "ms")
	res.set("calibrate.stagecosts_us_p50", median(rp.costUS), "us")
	res.set("sim.estimate_calls", float64(rp.entries), "count")
	res.set("sim.estimate_ms_total", ms(rp.estTotal), "ms")
	res.set("sim.estimate_us_p50", median(rp.estUS), "us")
	if pct, v, ok := tail(rp.estUS); ok {
		res.set("sim.estimate_us_tail", v, "us")
		fmt.Fprintf(out, "sim.estimate_us_tail is p%d of n=%d replayed estimates\n", pct, len(rp.estUS))
	}
	if rp.estTotal > 0 {
		res.set("sim.deep_share", float64(rp.deepTotal)/float64(rp.estTotal), "ratio")
	}
	res.set("sim.replay_mismatches", float64(rp.mismatches), "count")
}
