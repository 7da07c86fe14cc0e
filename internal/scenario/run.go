package scenario

import (
	"fmt"

	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/price"
	"repro/internal/restart"
)

// Result is one scenario execution: the raw manager timeline and
// stats, plus the structured report with invariant checks.
type Result struct {
	Compiled *Compiled
	Points   []manager.TimelinePoint
	Stats    manager.Stats
	Report   *Report
}

// Run compiles and executes a scenario. stateDir, when non-empty,
// warm-starts the planner cache and the cost meter from
// <dir>/planner-state.json (if present) and persists both after the
// run — the kill-and-resume discipline of `varuna-sim run -state`, so
// a scenario interrupted and re-run continues its cumulative bill and
// skips the cold planner sweep.
func Run(sc *Scenario, stateDir string) (*Result, error) {
	c, err := Compile(sc)
	if err != nil {
		return nil, err
	}
	return c.Run(stateDir)
}

// Run executes an already-compiled scenario, once: the run consumes
// the compiled testbed's RNG stream, so a second call on the same
// Compiled returns an error rather than a diverging timeline. Compile
// again to replay; a fresh compile replays bit-identically apart from
// planner-cache warmth, which changes cost but never decisions.
func (c *Compiled) Run(stateDir string) (*Result, error) {
	sc := c.Scenario
	if c.ran {
		return nil, fmt.Errorf("scenario %s: compiled scenario already ran; compile it again to replay", sc.Name)
	}
	c.ran = true
	opts := c.Opts
	planner := c.Job.Planner()
	var meter *price.Meter
	var sections restart.Sections
	if stateDir != "" {
		sections = restart.Sections{restart.SectionPlanner: planner}
		if opts.Prices != nil {
			meter = price.NewMeter(opts.Prices)
			sections[restart.SectionMeter] = meter
		}
		if _, err := restart.LoadSections(stateDir, sections); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		if meter != nil {
			opts.Meter = meter
		}
	}
	if c.trace != nil {
		opts.Trace = c.trace
		opts.TraceTrack = c.trace.Track("job:" + sc.Name)
	}
	if c.met != nil {
		opts.Metrics = c.met
	}
	if c.Series != nil {
		opts.Series = c.Series
		opts.SampleEvery = telemetrySampleEvery(sc)
		attachBreachHooks(c.Monitors, c.trace, c.met)
	}
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	mg := manager.NewWithPlanner(c.Job.Inputs(), c.TB, planner, opts, sc.Run.ManagerSeed)
	mg.Degrade = c.Degrade
	mg.NetDegrade = c.NetSched
	mg.ObjChange = c.ObjSched
	mg.Outages = c.Outages
	points, stats, err := mg.RunTimeline(c.Events, c.Horizon)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if stateDir != "" {
		if err := restart.SaveSections(stateDir, sections); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	if c.met != nil {
		c.met.Gauge("planner.cost_hit_rate", planner.Stats().HitRate())
		if opts.Prices != nil || opts.Meter != nil {
			c.met.Gauge("dollars.total", stats.DollarsSpent)
			c.met.Gauge("dollars.compute", stats.DollarsCompute)
			c.met.Gauge("dollars.reconfig", stats.DollarsReconfig)
			c.met.Gauge("dollars.idle", stats.DollarsIdle)
		}
	}
	report := buildReport(c, points, stats)
	report.SLOs, report.Violations = sloResults(c.Monitors, report.Violations)
	if c.met != nil {
		snap := c.met.Snapshot(obs.SimOnly)
		report.Obs = &snap
	}
	return &Result{
		Compiled: c,
		Points:   points,
		Stats:    stats,
		Report:   report,
	}, nil
}
