// Command perfbench is the repository benchmark. It drives one of three
// workloads through the public APIs of repro/internal/..., checks every
// output, and prints one JSON result line last.
//
// With --trace 0 it measures the end-to-end metrics with all
// observability off. With --trace 1 it makes a separate traced run that
// measures each layer from outside, by timing its own calls into the
// layer's public functions and profiling its own CPU.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fleet-soak --seed 0 --seconds 36 --trace 0
//
// Seed 0 replays the committed inputs, whose outputs are also compared
// with committed references; any other seed rewrites the input seeds.
// The process exits nonzero when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "workload seed; 0 replays the committed inputs")
	seconds := fs.Int("seconds", 36, "how long the end-to-end run measures")
	trace := fs.Int("trace", 0, "0 measures end to end; 1 makes the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seconds >= 1 --trace {0,1}\n",
			strings.Join(workloadNames(), ","))
		return 2
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(w, *seed, stdout)
	} else {
		res, err = measure(w, *seed, time.Duration(*seconds)*time.Second, stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed their output check\n",
			w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

// set records a metric.
func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// ops adds checked operations to the tally.
func (r *result) ops(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// write prints every metric by name with its unit, then the JSON line.
func (r *result) write(w io.Writer) error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	names := make([]string, 0, len(r.Metrics))
	for n, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "metric %-32s %14.6g ratio (%d of %d operations)\n", "failed_frac", frac, r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
