package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/scenarios"
)

// TraceOverhead gates span tracing plus the metrics registry: off is a
// run with nil hooks attached, and the export is the Chrome trace.
func TraceOverhead(x *Ctx) (*Table, error) {
	return overheadGate{
		title: "Tracing overhead: spot-dollars scenario, median of alternating runs",
		unit:  "Spans", offRow: "observed-off", onRow: "traced",
		pairs:        3,
		overheadNote: "traced overhead: %+.1f%% (gate: ≤5%%, %d spans recorded)",
		offNote:      "off-path divergence: 0 bytes (plain vs Observe(nil,nil) reports compared verbatim)",
		exportNote:   "trace export: %d bytes, byte-stable across replays",
		offErr:       "trace-overhead: observability off is not free: report bytes diverge",
		stableErr:    "trace-overhead: exported trace is not byte-stable across replays",
		budgetErr:    "trace-overhead: tracing adds %.1f%% wall time (budget 5%%)",
		attach: func(c *scenario.Compiled, on bool) func() ([]byte, int, error) {
			if !on {
				c.Observe(nil, nil)
				return nil
			}
			tr := obs.NewTracer()
			c.Observe(tr, obs.NewMetrics())
			return func() ([]byte, int, error) {
				data, err := tr.ChromeTrace()
				return data, tr.Len(), err
			}
		},
	}.run()
}

// TelemetryOverhead gates continuous series sampling plus online SLO
// aggregation: off is a run without EnableTelemetry, and the export is
// the series CSV.
func TelemetryOverhead(x *Ctx) (*Table, error) {
	return overheadGate{
		title: "Telemetry overhead: spot-dollars scenario, median of alternating runs",
		unit:  "Points", offRow: "sampling-off", onRow: "sampling-on",
		warmup: 1, pairs: 5,
		overheadNote: "sampling overhead: %+.1f%% (gate: ≤5%%, %d points recorded)",
		offNote:      "off-path divergence: 0 bytes (plain vs sampling-off reports compared verbatim)",
		exportNote:   "series export: %d bytes, byte-stable across replays",
		offErr:       "telemetry-overhead: sampling off is not free: report bytes diverge",
		stableErr:    "telemetry-overhead: series CSV is not byte-stable across replays",
		budgetErr:    "telemetry-overhead: sampling adds %.1f%% wall time (budget 5%%)",
		attach: func(c *scenario.Compiled, on bool) func() ([]byte, int, error) {
			if !on {
				return nil
			}
			c.EnableTelemetry()
			return func() ([]byte, int, error) {
				points := 0
				for _, n := range c.Series.Names() {
					points += c.Series.Len(n)
				}
				return c.Series.CSV(), points, nil
			}
		},
	}.run()
}

// overheadGate prices one observability layer on the spot-dollars
// scenario and pins its two contracts:
//
//   - off is free: a run with the layer off produces report bytes
//     identical to a plain run (the layer's hooks in the hot paths are
//     bit-identical no-ops while nil);
//   - on is cheap: the layer adds at most 5% to scenario wall time
//     (median of alternating off/on executions of freshly compiled
//     inputs, which cancels machine noise), and its export is
//     byte-stable across replays.
//
// The experiment errors on any of the three checks, so the benchdiff
// gate catches an instrumentation regression the unit tests miss.
type overheadGate struct {
	title, unit   string // the table title; the recorded-items column
	offRow, onRow string
	// warmup discarded off/on pairs precede the timed ones: the first
	// executions pay allocator and cache warmup that would otherwise
	// land asymmetrically on the off side and fake an overhead.
	warmup, pairs int
	// Note and error texts: overheadNote formats the overhead and the
	// recorded items, exportNote the export's size, budgetErr the
	// overhead.
	overheadNote, offNote, exportNote string
	offErr, stableErr, budgetErr      string
	// attach turns the layer on or off for one compiled run and, when
	// on, returns what to read after it: the export and the number of
	// items recorded.
	attach func(c *scenario.Compiled, on bool) func() ([]byte, int, error)
}

func (g overheadGate) run() (*Table, error) {
	data, err := scenarios.FS.ReadFile("spot-dollars.yaml")
	if err != nil {
		return nil, err
	}
	type sample struct {
		rep, export []byte
		items       int
		wall        time.Duration
	}
	run := func(on bool) (s sample, err error) {
		sc, err := scenario.Parse(data)
		if err != nil {
			return s, err
		}
		c, err := scenario.Compile(sc)
		if err != nil {
			return s, err
		}
		export := g.attach(c, on)
		start := time.Now()
		res, err := c.Run("")
		s.wall = time.Since(start)
		if err != nil {
			return s, err
		}
		if s.rep, err = res.Report.JSON(); err != nil {
			return s, err
		}
		if export != nil {
			s.export, s.items, err = export()
		}
		return s, err
	}

	// Plain baseline report (the layer never touched).
	sc, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	plain, err := scenario.Run(sc, "")
	if err != nil {
		return nil, err
	}
	plainRep, err := plain.Report.JSON()
	if err != nil {
		return nil, err
	}

	var offWalls, onWalls []time.Duration
	var off, on, first sample
	for i := 0; i < g.warmup+g.pairs; i++ {
		if off, err = run(false); err != nil {
			return nil, err
		}
		if on, err = run(true); err != nil {
			return nil, err
		}
		if i < g.warmup {
			continue
		}
		offWalls = append(offWalls, off.wall)
		onWalls = append(onWalls, on.wall)
		if i == g.warmup {
			first = on
		}
	}

	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	offMed, onMed := median(offWalls), median(onWalls)
	overhead := 100 * (float64(onMed) - float64(offMed)) / float64(offMed)

	t := &Table{
		Title:  g.title,
		Header: []string{"Mode", "Median wall", g.unit, "Report bytes"},
	}
	t.Add("plain", "-", "0", fmt.Sprint(len(plainRep)))
	t.Add(g.offRow, offMed.Round(time.Millisecond).String(), "0", fmt.Sprint(len(off.rep)))
	t.Add(g.onRow, onMed.Round(time.Millisecond).String(), fmt.Sprint(on.items), fmt.Sprint(len(on.rep)))
	t.Notes = append(t.Notes,
		fmt.Sprintf(g.overheadNote, overhead, on.items),
		g.offNote,
		fmt.Sprintf(g.exportNote, len(first.export)))

	if !bytes.Equal(plainRep, off.rep) {
		return t, errors.New(g.offErr)
	}
	if !bytes.Equal(first.export, on.export) {
		return t, errors.New(g.stableErr)
	}
	if overhead > 5 {
		return t, fmt.Errorf(g.budgetErr, overhead)
	}
	return t, nil
}
