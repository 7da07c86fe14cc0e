// Package experiments regenerates every table and figure of the
// paper's evaluation (§7) on the reproduction stack: each experiment
// builds the workloads, runs Varuna and the relevant baselines on the
// testbed, and reports the same rows/series the paper does. The
// EXPERIMENTS.md file records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/autoconfig"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/testbed"
	"repro/scenarios"
)

// defaultCost is the V100 kernel model shared with the testbed.
func defaultCost() compute.CostModel { return compute.Default() }

// offload102 builds the 200B job config with optimizer state in host
// memory (§7.1.1).
func offload102(job *core.Job, c autoconfig.Choice) testbed.JobConfig {
	return testbed.JobConfig{
		Spec:             job.Spec,
		Stages:           c.Stages,
		M:                c.M,
		Nm:               c.Nm,
		D:                c.D,
		OffloadOptimizer: true,
	}
}

// Table is a printable experiment result.
type Table struct {
	// Title names the experiment ("Table 4: ...").
	Title string
	// Header labels the columns.
	Header []string
	// Rows hold formatted cells.
	Rows [][]string
	// Notes carry caveats and substitutions.
	Notes []string
	// Figure optionally carries pre-rendered chart text (Gantt, loss
	// curves, availability plots).
	Figure string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Figure != "" {
		b.WriteByte('\n')
		b.WriteString(t.Figure)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// f2 formats with 2 decimals, f3 with 3, f1 with 1.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// tflopsPerGPU converts per-GPU throughput into useful TFlops/s/GPU
// (recompute excluded, as §7.1 specifies).
func tflopsPerGPU(spec *model.Spec, exPerSecPerGPU float64) float64 {
	return exPerSecPerGPU * spec.TrainFlopsPerExample() / 1e12
}

// Ctx carries the state shared by the experiments of one invocation —
// a cache of calibrated jobs: several experiments use the same
// (model, cluster) pair and calibration is the expensive step. Each
// serial invocation shares one Ctx across every experiment; the
// parallel runner gives each experiment its own, so concurrently
// running experiments never share a testbed (whose RNG is neither
// goroutine-safe nor order-independent) and results stay deterministic
// regardless of scheduling.
type Ctx struct {
	jobs sync.Map
}

// NewCtx returns an empty experiment context.
func NewCtx() *Ctx { return &Ctx{} }

type jobKey struct {
	spec    string
	cluster string
	mTotal  int
	seed    int64
}

// sharedJob returns a calibrated core.Job for the spec/cluster pair,
// memoized within this Ctx.
func (x *Ctx) sharedJob(spec *model.Spec, cluster hw.Cluster, mTotal int, seed int64) (*core.Job, error) {
	key := jobKey{spec: spec.Name, cluster: cluster.Name, mTotal: mTotal, seed: seed}
	if v, ok := x.jobs.Load(key); ok {
		return v.(*core.Job), nil
	}
	job, err := core.NewJob(spec, cluster, mTotal, seed)
	if err != nil {
		return nil, err
	}
	if v, loaded := x.jobs.LoadOrStore(key, job); loaded {
		return v.(*core.Job), nil
	}
	return job, nil
}

// runScenario runs a committed single-job scenario file on this Ctx's
// calibrated job. set, when non-nil, adjusts the run block first (the
// variant an experiment compares). The compiled job is swapped for the
// memoized one of the same model, cluster, batch and seed, so every
// variant shares one calibration and one planner; a scenario that
// measures on the job's own testbed measures on the shared job's.
func (x *Ctx) runScenario(file string, set func(*scenario.RunSpec)) (*scenario.Result, error) {
	data, err := scenarios.FS.ReadFile(file)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	if set != nil {
		set(&sc.Run)
	}
	c, err := scenario.Compile(sc)
	if err != nil {
		return nil, err
	}
	job, err := x.sharedJob(c.Job.Spec, c.Job.Cluster, c.Job.MTotal, sc.Job.Seed)
	if err != nil {
		return nil, err
	}
	if c.TB == c.Job.Testbed() {
		c.TB = job.Testbed()
	}
	c.Job = job
	return c.Run("")
}
