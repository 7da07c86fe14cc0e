package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/autoconfig"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/testbed"
	"repro/scenarios"
)

// workload is one set of inputs the benchmark runs. Each run is closed
// loop: the benchmark's single caller issues the next call only after the
// previous one returns.
type workload struct {
	name string
	// why is the one-sentence reason BENCHMARK.json records.
	why string
	// inputs is how many generated inputs a measurement covers, each at
	// least once. A soak's or a walk's work depends on its input, so it
	// takes several, and a measurement's medians do not hinge on one draw.
	inputs    int
	newRunner func(in input) (runner, error)
}

// The committed chaos-stress soak is not a workload. Its runs are ~8 s
// of cold parallel sweeps at ~1200 GPUs, and on a shared 2-CPU host the
// same inputs' run time drifted by a sixth within ten minutes, about
// twice as much as any workload here. morph-decisions covers the same
// cold sweep path.
var workloads = []*workload{
	{
		name:   "fleet-soak",
		why:    "the committed multi-job scenario: the only workload with fleet ticks, leases and revocation cascades, and it uses the planner warm (cost-cache hits dominate)",
		inputs: 12,
		newRunner: func(in input) (runner, error) {
			return newScenarioRunner("multi-job", in)
		},
	},
	{
		name:   "nn-train",
		why:    "Figure 9 char-GPT at P=2 D=2 m=8 B=256 for a fixed step count: the only workload where the nn kernels and the engine pipeline do the work",
		inputs: 1,
		newRunner: func(in input) (runner, error) {
			return newTrainRunner(in), nil
		},
	},
	{
		name:   "morph-decisions",
		why:    "one caller walks seeded GPT2-8.3B fleet sizes through one long-lived Planner.Best: the cold sweep path (simtime, sim, calibrate, autoconfig) and the only per-call decision latency",
		inputs: 10,
		newRunner: func() func(input) (runner, error) {
			// Every input decides on the same fleet sizes, so all share
			// one stateless reference.
			want := map[int]decision{}
			return func(in input) (runner, error) { return newDecisionRunner(in, want), nil }
		}(),
	},
}

// input identifies generated input k of a workload seed. Input 0 of
// seed 0 is the committed one.
type input struct {
	seed int64
	k    int
}

func (in input) committed() bool { return in.seed == 0 && in.k == 0 }

// streamSeed derives the seed of one named input stream. The committed
// input keeps the committed value, so the default run replays the
// committed inputs and can be compared with their goldens.
func (in input) streamSeed(stream string, committed int64) int64 {
	if in.committed() {
		return committed
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", stream, in.seed, in.k)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>2) + 1
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runner executes one workload: setup builds fresh program state, run
// is the timed phase, check verifies the last run's outputs.
type runner interface {
	setup() error
	run() error
	// check returns how many operations the last run attempted and how
	// many failed their output check. It is never timed.
	check() (attempted, failed int)
	// output is the last run's output in a stable byte form, for the
	// digest.
	output() []byte
}

// Bounds of the set-up timing phase.
const (
	minSetups    = 5
	maxSetups    = 1000
	minSetupTime = 0.5 // seconds
)

// measure runs the workload's inputs in turn, closed loop, with all
// observability off, and reports the end-to-end metrics. Every input
// runs at least once; after that a run starts only while it does not
// overrun the budget.
func measure(w *workload, seed int64, budget time.Duration, out io.Writer) (*result, error) {
	rs := make([]runner, w.inputs)
	for k := range rs {
		var err error
		if rs[k], err = w.newRunner(input{seed, k}); err != nil {
			return nil, err
		}
	}
	// Set-up is timed on its own first, in the same process state on
	// every run, over the inputs in turn: at least minSetups times, and
	// until minSetupTime is spent or maxSetups are done. An input's
	// set-up cost varies with its seed, so the median spans them all.
	var setups []float64
	var spent float64
	freshHeap()
	for i := 0; len(setups) < minSetups || (spent < minSetupTime && len(setups) < maxSetups); i++ {
		start := time.Now()
		if err := rs[i%len(rs)].setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start).Seconds()
		setups = append(setups, d)
		spent += d
	}

	res := newResult()
	var runs, allocs, peaks []float64
	digests := make([]string, len(rs))
	start := time.Now()
	for i := 0; i < len(rs) || !overruns(time.Since(start), i, budget); i++ {
		k := i % len(rs)
		r := rs[k]
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m, err := timedRun(r)
		if err != nil {
			return nil, err
		}
		runs = append(runs, m.seconds)
		allocs = append(allocs, m.allocMB)
		peaks = append(peaks, m.peakMB)
		res.ops(r.check())
		// Every run of one input must replay its first bit for bit.
		dg := digest(r.output())
		if digests[k] == "" {
			digests[k] = dg
		} else if dg != digests[k] {
			fmt.Fprintf(os.Stderr, "perfbench: input %d output digest %s differs from its first run's %s\n", k, dg, digests[k])
			res.ops(1, 1)
		}
	}
	fmt.Fprintf(out, "workload %s seed %d: %d runs over %d inputs closed loop, GOMAXPROCS %d\n",
		w.name, seed, len(runs), len(rs), runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "digest %s\n", strings.Join(digests, " "))
	summary(out, "setup_s", "s", setups)
	summary(out, "run_s", "s", runs)
	summary(out, "alloc_mb", "MB", allocs)
	summary(out, "peak_rss_mb", "MB", peaks)
	var missMS []float64
	for _, r := range rs {
		if d, ok := r.(*decisionRunner); ok {
			missMS = append(missMS, d.missMS...)
		}
	}
	if len(missMS) > 0 {
		summary(out, "decision_ms (memo misses)", "ms", missMS)
	}
	res.set("setup_s", median(setups), "s")
	res.set("run_s", median(runs), "s")
	// Memory figures are means: they are bimodal from run to run, as a
	// collection does or does not empty the simulator's executor pool at
	// a bad moment, and a median of such samples flips between modes.
	res.set("alloc_mb", mean(allocs), "MB")
	res.set("peak_rss_mb", mean(peaks), "MB")
	return res, nil
}

// overruns reports whether one more run would end past the budget, at
// the mean pace of the n runs that took elapsed. So a workload whose runs
// take seconds stops short of the budget instead of overrunning it by
// most of a run.
func overruns(elapsed time.Duration, n int, budget time.Duration) bool {
	return n > 0 && elapsed+elapsed/time.Duration(n) > budget
}

// measurement is one timed run.
type measurement struct {
	seconds, allocMB, peakMB float64
}

// freshHeap prepares the process for a timed phase. Collecting first
// keeps earlier garbage out of it. The second collection, in
// FreeOSMemory, empties every sync.Pool and returns freed pages to the
// OS, so the phase starts from the pool state and nearly the resident
// set of a fresh process.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// timedRun times one run, the bytes it allocated and its peak resident
// memory.
func timedRun(r runner) (measurement, error) {
	freshHeap()
	if err := resetPeakRSS(); err != nil {
		return measurement{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := r.run()
	m := measurement{seconds: time.Since(start).Seconds()}
	runtime.ReadMemStats(&after)
	if err != nil {
		return measurement{}, fmt.Errorf("run: %w", err)
	}
	m.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m.peakMB, err = peakRSSMB()
	return m, err
}

// resetPeakRSS restarts the kernel's record of this process's peak
// resident set (VmHWM) from the current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// ---- fleet soak ------------------------------------------------------

// scenarioRunner runs a committed fleet scenario: its tenants share one
// spot market through the arbiter.
type scenarioRunner struct {
	file   string
	in     input
	data   []byte
	golden []byte // the committed report, for the committed input only

	fleet    *scenario.CompiledFleet
	observed bool
	res      *scenario.FleetResult
	report   []byte
}

func newScenarioRunner(file string, in input) (*scenarioRunner, error) {
	data, err := scenarios.FS.ReadFile(file + ".yaml")
	if err != nil {
		return nil, err
	}
	r := &scenarioRunner{file: file, in: in, data: data}
	if in.committed() {
		path := filepath.Join("internal", "scenario", "testdata", "goldens", file+".report.json")
		if r.golden, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("reading the committed report (run from the repository root): %w", err)
		}
	}
	return r, nil
}

// reseed rewrites the parsed scenario's victim seed and each tenant's
// manager seed, so the program sees only the generated inputs. The
// market seed stays committed: the market's capacity process sets how
// much work a run does (fleet-soak runs take 0.5 s to 1.5 s across market
// seeds and 1.0 s to 1.2 s across the others), and a benchmark input
// should vary the events, not the size of the job.
func reseed(sc *scenario.Scenario, in input) {
	sc.Fleet.VictimSeed = in.streamSeed("victim", sc.Fleet.VictimSeed)
	for i := range sc.Jobs {
		sc.Jobs[i].ManagerSeed = in.streamSeed("manager/"+sc.Jobs[i].Name, sc.Jobs[i].ManagerSeed)
	}
}

func (r *scenarioRunner) parse() (*scenario.Scenario, error) {
	sc, err := scenario.Parse(r.data)
	if err != nil {
		return nil, err
	}
	reseed(sc, r.in)
	return sc, nil
}

func (r *scenarioRunner) compile(sc *scenario.Scenario) (err error) {
	r.observed = false
	r.fleet, err = scenario.CompileFleet(sc)
	return err
}

func (r *scenarioRunner) setup() error {
	sc, err := r.parse()
	if err != nil {
		return err
	}
	return r.compile(sc)
}

// observe attaches the program's own observability hooks; only the
// traced run calls it.
func (r *scenarioRunner) observe(tr *obs.Tracer, m *obs.Metrics) {
	r.observed = true
	r.fleet.Observe(tr, m)
}

func (r *scenarioRunner) run() (err error) {
	r.res, err = r.fleet.Run()
	return err
}

// check requires zero invariant violations and, at the default seed
// with observability off, the committed report byte for byte.
func (r *scenarioRunner) check() (attempted, failed int) {
	rep, err := r.res.Report.JSON()
	violations := r.res.Report.Violations
	r.report = append(rep, '\n')
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s report: %v\n", r.file, err)
	case len(violations) > 0:
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d invariant violations, first: %s\n", r.file, len(violations), violations[0])
	case r.golden != nil && !r.observed && firstDiff(r.report, r.golden) != "":
		fmt.Fprintf(os.Stderr, "perfbench: %s report differs from the committed golden: %s\n", r.file, firstDiff(r.report, r.golden))
	default:
		return 1, 0
	}
	return 1, 1
}

func (r *scenarioRunner) output() []byte { return r.report }

// plannerRef is one tenant's planner with what a replay needs.
type plannerRef struct {
	pl *autoconfig.Planner
	in autoconfig.Inputs
	tb *testbed.Testbed
}

func (r *scenarioRunner) planners() []plannerRef {
	var out []plannerRef
	for _, j := range r.fleet.Jobs {
		out = append(out, plannerRef{j.Mgr.Plan, j.Mgr.In, j.Mgr.TB})
	}
	return out
}

// decisions counts the managers' morph and hold decisions.
func (r *scenarioRunner) decisions() int {
	n := 0
	for _, j := range r.res.Jobs {
		n += j.Stats.Morphs + j.Stats.Holds
	}
	return n
}

// ---- nn-train --------------------------------------------------------

// trainSteps is the fixed number of engine steps one nn-train run takes.
const trainSteps = 10

// trainConfig is Figure 9's big-batch run of the char-GPT.
func trainConfig(dataSeed int64) engine.Config {
	return engine.Config{
		GPT: nn.GPTConfig{Vocab: 24, Dim: 24, SeqLen: 12, Layers: 4, MLPMult: 2, Seed: 99},
		P:   2, D: 2, MicroBatch: 8, BatchSize: 256, LR: 8e-3, DataSeed: dataSeed,
	}
}

type trainRunner struct {
	cfg    engine.Config
	ref    []float64 // the committed loss sequence, at the default seed only
	eng    *engine.Engine
	losses []float64
}

func newTrainRunner(in input) *trainRunner {
	r := &trainRunner{cfg: trainConfig(in.streamSeed("data", 31))}
	if in.committed() {
		r.ref = referenceLosses
	}
	return r
}

func (r *trainRunner) setup() (err error) {
	r.eng, err = engine.New(r.cfg)
	return err
}

func (r *trainRunner) run() error {
	r.losses = r.eng.Losses(trainSteps)
	return nil
}

// check requires every step's loss to be finite and, at the default
// seed, to match the committed sequence to rounding.
func (r *trainRunner) check() (attempted, failed int) {
	for i, l := range r.losses {
		ok := !math.IsNaN(l) && !math.IsInf(l, 0)
		if ok && i < len(r.ref) {
			ok = sameToRounding(l, r.ref[i])
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: nn-train step %d loss %.17g failed its check\n", i, l)
			failed++
		}
	}
	return len(r.losses), failed
}

// sameToRounding allows for a different summation or fused
// multiply-add order, nothing more.
func sameToRounding(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Abs(b)
}

func (r *trainRunner) output() []byte {
	var b strings.Builder
	for _, l := range r.losses {
		fmt.Fprintf(&b, "%.17g\n", l)
	}
	return []byte(b.String())
}

// ---- morph-decisions ---------------------------------------------------

// The decision walk moves between fixed fleet-size levels. Every level
// is decided at least once on every seed, so each seed pays the same
// memo misses and fills the same cost-cache keys; the seed changes the
// order, and with it which decisions find the cost cache warm.
const (
	decisionLo, decisionHi, decisionStep = 64, 176, 16
	decisionSteps                        = 150 // walk length before the coverage tail
	decisionMaxJump                      = 3   // levels one fleet change may move
	decisionClusterGPUs                  = 512
)

func decisionLevels() []int {
	var out []int
	for g := decisionLo; g <= decisionHi; g += decisionStep {
		out = append(out, g)
	}
	return out
}

// decisionWalk is a seeded reflecting random walk over levels, moving
// 1..maxJump levels per step, followed by every level it did not reach
// in a seeded order.
func decisionWalk(seed int64, levels []int, steps, maxJump int) []int {
	rng := rand.New(rand.NewSource(seed))
	n := len(levels)
	seen := make([]bool, n)
	i := rng.Intn(n)
	walk := make([]int, 0, steps+n)
	for k := 0; k < steps; k++ {
		walk = append(walk, levels[i])
		seen[i] = true
		j := rng.Intn(2*maxJump) - maxJump
		if j >= 0 {
			j++
		}
		i += j
		if i < 0 {
			i = -i
		}
		if i >= n {
			i = 2*(n-1) - i
		}
	}
	for _, k := range rng.Perm(n) {
		if !seen[k] {
			walk = append(walk, levels[k])
		}
	}
	return walk
}

type decision struct {
	choice autoconfig.Choice
	err    string
}

type decisionRunner struct {
	walk      []int
	job       *core.Job
	decisions []decision
	missMS    []float64        // latencies of calls that missed the memo, over all runs
	want      map[int]decision // stateless autoconfig.Best, computed on first check
}

func newDecisionRunner(in input, want map[int]decision) *decisionRunner {
	return &decisionRunner{
		walk: decisionWalk(in.streamSeed("walk", 1), decisionLevels(), decisionSteps, decisionMaxJump),
		want: want,
	}
}

// setup builds the GPT2-8.3B job, which constructs its Planner.
func (r *decisionRunner) setup() (err error) {
	r.job, err = core.NewJob(model.GPT2Megatron8B(), hw.SpotCluster(hw.NC6v3, decisionClusterGPUs), 8192, 1)
	return err
}

func (r *decisionRunner) run() error {
	r.decide(nil, -1)
	return nil
}

// decide walks the fleet sizes through the job's long-lived Planner,
// timing each Best call; tr, when set, records each call as a span.
func (r *decisionRunner) decide(tr *tracer, parent int) {
	pl := r.job.Planner()
	r.decisions = r.decisions[:0]
	for _, g := range r.walk {
		misses := pl.Stats().DecisionMisses
		var c autoconfig.Choice
		var err error
		d := tr.call("autoconfig.best", parent, func() { c, err = pl.Best(g) })
		if pl.Stats().DecisionMisses > misses {
			r.missMS = append(r.missMS, ms(d))
		}
		r.decisions = append(r.decisions, decision{c, errString(err)})
	}
}

// check requires every choice to equal the stateless autoconfig.Best.
func (r *decisionRunner) check() (attempted, failed int) {
	in := r.job.Inputs()
	for i, g := range r.walk {
		want, ok := r.want[g]
		if !ok {
			c, err := autoconfig.Best(in, g)
			want = decision{c, errString(err)}
			r.want[g] = want
		}
		if !reflect.DeepEqual(r.decisions[i], want) {
			fmt.Fprintf(os.Stderr, "perfbench: decision %d at %d GPUs is %v, stateless Best gives %v\n", i, g, r.decisions[i].choice, want.choice)
			failed++
		}
	}
	return len(r.walk), failed
}

func (r *decisionRunner) output() []byte {
	var b strings.Builder
	for i, d := range r.decisions {
		fmt.Fprintf(&b, "%d %d %d %d %d %d %q\n", r.walk[i], d.choice.P, d.choice.D, d.choice.M, d.choice.Nm, d.choice.Est, d.err)
	}
	return []byte(b.String())
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
