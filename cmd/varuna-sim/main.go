// Command varuna-sim runs Varuna's auto-configuration for a model on a
// GPU fleet: it calibrates once, sweeps pipeline depths through the
// parametrized simulator (§4.4), and prints the predicted throughput of
// every feasible configuration plus the chosen one.
//
// The `run` subcommand is the scenario front door: it executes a
// declarative scenario file (fleet spec + scripted/chaos event
// timeline) end-to-end through the §4.6 manager and prints the
// structured run report. The same file and seeds always replay to a
// bit-identical timeline.
//
// Usage:
//
//	varuna-sim -model gpt2-8.3b -gpus 128 -batch 8192
//	varuna-sim -model gpt2-2.5b -gpus 100 -vm 4      # 4-GPU VMs
//	varuna-sim run scenario.yaml                     # run a scenario file
//	varuna-sim run elastic                           # or a committed scenario
//	varuna-sim run chaos-stress -json report.json    # machine-readable report
//	varuna-sim run restart-cost -state ./state       # persist planner+meter
//	varuna-sim run multi-job -trace trace.json       # + Chrome trace export
//	varuna-sim run elastic -html report.html         # + HTML report with sparklines
//	varuna-sim metrics elastic -o out/               # OpenMetrics + series CSV export
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/scenarios"
)

// loadScenario resolves a name to a scenario: a file on disk first,
// then the committed scenarios/ set.
func loadScenario(name string) (*scenario.Scenario, error) {
	if _, statErr := os.Stat(name); statErr == nil {
		return scenario.Load(name)
	}
	if data, fsErr := scenarios.FS.ReadFile(strings.TrimSuffix(name, ".yaml") + ".yaml"); fsErr == nil {
		return scenario.Parse(data)
	}
	return nil, fmt.Errorf("%q is neither a file nor a committed scenario", name)
}

// parseScenarioArgs parses a subcommand's flags around the positional
// scenario name (`run chaos-stress -json r.json` works: flag parsing
// stops at the first positional, so we parse, take the positional,
// and parse the remainder). Exits with usage on error.
func parseScenarioArgs(fs *flag.FlagSet, args []string) string {
	fs.Parse(args)
	if fs.NArg() < 1 {
		fs.Usage()
		os.Exit(2)
	}
	name := fs.Arg(0)
	fs.Parse(fs.Args()[1:])
	if fs.NArg() != 0 {
		fs.Usage()
		os.Exit(2)
	}
	return name
}

// listScenarios prints the committed scenario names to stderr.
func listScenarios() {
	entries, _ := scenarios.FS.ReadDir(".")
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".yaml") {
			fmt.Fprintf(os.Stderr, "  %s\n", strings.TrimSuffix(e.Name(), ".yaml"))
		}
	}
}

// runOutcome is what an executed scenario hands the CLI: the printable
// report pieces plus the telemetry state the exporters read.
type runOutcome struct {
	summary    string
	jsonBytes  func() ([]byte, error)
	violations []string
	series     *obs.SeriesSet
	html       func() []byte
}

// observedRun compiles and executes a scenario with the given
// observability hooks attached (both may be nil — then the run is
// byte-identical to an unobserved one) and returns the report pieces
// the CLI prints. forceTelemetry enables continuous series sampling
// even when the scenario declares no telemetry block (the exporter
// paths). Fleet-mode scenarios go through the arbiter; -state is a
// single-job facility only.
func observedRun(sc *scenario.Scenario, stateDir string, tr *obs.Tracer, met *obs.Metrics, forceTelemetry bool) (*runOutcome, error) {
	if sc.Fleet != nil {
		if stateDir != "" {
			return nil, fmt.Errorf("-state is not supported for fleet scenarios")
		}
		c, err := scenario.CompileFleet(sc)
		if err != nil {
			return nil, err
		}
		if forceTelemetry {
			c.EnableTelemetry()
		}
		c.Observe(tr, met)
		res, err := c.Run()
		if err != nil {
			return nil, err
		}
		return &runOutcome{
			summary:    res.Report.Summary(),
			jsonBytes:  res.Report.JSON,
			violations: res.Report.Violations,
			series:     c.Series,
			html:       res.HTML,
		}, nil
	}
	c, err := scenario.Compile(sc)
	if err != nil {
		return nil, err
	}
	if forceTelemetry {
		c.EnableTelemetry()
	}
	c.Observe(tr, met)
	res, err := c.Run(stateDir)
	if err != nil {
		return nil, err
	}
	return &runOutcome{
		summary:    res.Report.Summary(),
		jsonBytes:  res.Report.JSON,
		violations: res.Report.Violations,
		series:     c.Series,
		html:       res.HTML,
	}, nil
}

// runScenario implements `varuna-sim run <scenario>`: load (from disk
// or the committed scenarios/ set), compile, execute, report. Returns
// the process exit code so deferred profile writers run before exit.
func runScenario(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	jsonOut := fs.String("json", "", "also write the structured report as JSON to this path ('-' for stdout)")
	stateDir := fs.String("state", "", "state directory: load planner+meter before the run, save after")
	traceOut := fs.String("trace", "", "export a Chrome trace-event JSON of the run to this path (open in Perfetto or chrome://tracing)")
	htmlOut := fs.String("html", "", "write a self-contained HTML report (summary, SLOs, series sparklines) to this path")
	prof := profiling.Register(fs, "varuna-sim run")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: varuna-sim run <scenario.yaml | committed name> [-json path] [-state dir] [-trace path] [-html path] [-cpuprofile path] [-memprofile path]\ncommitted scenarios:\n")
		listScenarios()
		fs.PrintDefaults()
	}
	name := parseScenarioArgs(fs, args)

	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer prof.Stop()

	sc, err := loadScenario(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "varuna-sim run:", err)
		return 1
	}

	fmt.Printf("scenario %s: %s\n", sc.Name, sc.Description)

	// Observability is attached only when asked for: with -trace unset
	// both hooks stay nil and the run (and its report bytes) is
	// identical to an unobserved one. -html forces series sampling so
	// the page has sparklines even for scenarios without a telemetry
	// block.
	var tr *obs.Tracer
	var met *obs.Metrics
	if *traceOut != "" {
		tr = obs.NewTracer()
		met = obs.NewMetrics()
	}

	out, err := observedRun(sc, *stateDir, tr, met, *htmlOut != "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "varuna-sim run:", err)
		return 1
	}
	fmt.Print(out.summary)

	if *traceOut != "" {
		if err := writeTrace(tr, met, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "varuna-sim run:", err)
			return 1
		}
	}
	if *htmlOut != "" {
		if err := os.WriteFile(*htmlOut, out.html(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "varuna-sim run:", err)
			return 1
		}
		fmt.Printf("html:      report → %s\n", *htmlOut)
	}
	if *jsonOut != "" {
		data, err := out.jsonBytes()
		if err != nil {
			fmt.Fprintln(os.Stderr, "varuna-sim run:", err)
			return 1
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "varuna-sim run:", err)
			return 1
		}
	}
	if len(out.violations) > 0 {
		return 1
	}
	return 0
}

// metricsScenario implements `varuna-sim metrics <scenario> [-o dir]`:
// run the scenario with continuous telemetry forced on and export the
// deterministic (SimOnly) metrics snapshot as OpenMetrics text plus
// the raw series points as CSV. Exporters do not gate: the exit code
// reflects export success, not invariant violations.
func metricsScenario(args []string) int {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	outDir := fs.String("o", ".", "output directory for metrics.om and series.csv")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: varuna-sim metrics <scenario.yaml | committed name> [-o dir]\ncommitted scenarios:\n")
		listScenarios()
		fs.PrintDefaults()
	}
	name := parseScenarioArgs(fs, args)

	sc, err := loadScenario(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "varuna-sim metrics:", err)
		return 1
	}
	fmt.Printf("scenario %s: %s\n", sc.Name, sc.Description)

	met := obs.NewMetrics()
	out, err := observedRun(sc, "", nil, met, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "varuna-sim metrics:", err)
		return 1
	}
	fmt.Print(out.summary)

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "varuna-sim metrics:", err)
		return 1
	}
	om := obs.OpenMetrics(met.Snapshot(obs.SimOnly), out.series)
	omPath := filepath.Join(*outDir, "metrics.om")
	if err := os.WriteFile(omPath, om, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "varuna-sim metrics:", err)
		return 1
	}
	csvPath := filepath.Join(*outDir, "series.csv")
	if err := os.WriteFile(csvPath, out.series.CSV(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "varuna-sim metrics:", err)
		return 1
	}
	names := out.series.Names()
	var pts int
	for _, n := range names {
		pts += out.series.Len(n)
	}
	fmt.Printf("metrics:   OpenMetrics → %s, %d series (%d points) → %s\n", omPath, len(names), pts, csvPath)
	return 0
}

// writeTrace exports the Chrome trace and prints the wall-clock
// self-profiling block (planner sweep / arbiter tick latencies) that
// never enters the deterministic report.
func writeTrace(tr *obs.Tracer, met *obs.Metrics, path string) error {
	data, err := tr.ChromeTrace()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace:     %d spans on %d tracks → %s\n", tr.Len(), len(tr.Tracks()), path)
	if ws := met.Snapshot(obs.WallOnly).Summary(); ws != "" {
		fmt.Print("self-profiling (wall-clock, not in report):\n" + ws)
	}
	return nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(runScenario(os.Args[2:]))
		case "metrics":
			os.Exit(metricsScenario(os.Args[2:]))
		}
	}
	modelName := flag.String("model", "GPT2-2.5B", "model name (see model zoo)")
	gpus := flag.Int("gpus", 100, "available GPUs")
	batch := flag.Int("batch", 8192, "global mini-batch size")
	vmSize := flag.Int("vm", 1, "GPUs per spot VM (1 or 4)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "varuna-sim: unknown command %q (want run, metrics or flags only)\n", flag.Arg(0))
		os.Exit(2)
	}

	spec, ok := model.ByName(*modelName)
	if !ok {
		fmt.Fprintf(os.Stderr, "varuna-sim: unknown model %q; available:\n", *modelName)
		for _, s := range model.Zoo() {
			fmt.Fprintf(os.Stderr, "  %s\n", s.Name)
		}
		os.Exit(1)
	}
	vm := hw.NC6v3
	if *vmSize == 4 {
		vm = hw.NC24v3
	}
	cluster := hw.SpotCluster(vm, *gpus)

	fmt.Printf("model:   %s\n", spec)
	fmt.Printf("cluster: %s (%d GPUs, %s inter-node)\n", cluster.Name, cluster.NumGPUs(), cluster.Inter.Kind)
	fmt.Printf("batch:   %d examples/mini-batch\n\n", *batch)

	job, err := core.NewJob(spec, cluster, *batch, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "varuna-sim:", err)
		os.Exit(1)
	}
	fmt.Printf("calibrated %d cut-points; micro-batch sweet spot m=%d\n\n",
		len(job.CutPoints()), job.Calibration().PickMicroSize(0.05))

	sweep, err := job.Sweep(*gpus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "varuna-sim:", err)
		os.Exit(1)
	}
	fmt.Printf("%-10s %-4s %-6s %-12s %-10s %s\n", "config", "m", "Nm", "est/batch", "total ex/s", "ex/s/GPU")
	best := sweep[0]
	for _, c := range sweep {
		if c.TotalExPerSec() > best.TotalExPerSec() {
			best = c
		}
		fmt.Printf("%-10s %-4d %-6d %-12v %-10.1f %.2f\n",
			fmt.Sprintf("%dx%d", c.P, c.D), c.M, c.Nm, c.Est, c.TotalExPerSec(), c.ExPerSecPerGPU())
	}
	fmt.Printf("\nchosen: %v → %.1f ex/s on %d GPUs\n", best, best.TotalExPerSec(), best.GPUsUsed)

	ms, err := job.Measure(best)
	if err != nil {
		fmt.Fprintln(os.Stderr, "varuna-sim:", err)
		os.Exit(1)
	}
	fmt.Printf("measured: %v per mini-batch (%.1f ex/s) — simulator error %.1f%%\n",
		ms.MiniBatchTime, ms.ExPerSec(),
		100*math.Abs(best.Est.Seconds()-ms.MiniBatchTime.Seconds())/ms.MiniBatchTime.Seconds())
}
