package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/price"
	"repro/internal/simtime"
	"repro/internal/spot"
)

// CompiledFleet is a fleet-mode scenario resolved into the arbiter's
// inputs: the shared market, one configured manager per job (each with
// its own tee meter charging a shared pool bill), the arbiter options
// and the price curve with compile-time shocks applied. Compilation is
// deterministic, so runs of two compiles of one scenario are
// bit-identical. A CompiledFleet runs once (see Run).
type CompiledFleet struct {
	observed
	Market *spot.Market
	Jobs   []*fleet.Job
	Opts   fleet.Options
	Curve  *price.Curve
	// PoolMeter is the shared fleet bill; JobMeters[i] is job i's tee
	// meter (each charge lands on both). Nil without a prices block.
	PoolMeter *price.Meter
	JobMeters []*price.Meter
	Horizon   simtime.Duration
	// ScriptEvents counts the scripted events compiled in.
	ScriptEvents int
}

// CompileFleet resolves a fleet-mode scenario: calibrates every job,
// builds the shared market and price curve (price-shock events apply
// at compile time), and assembles the arbiter options. Gap priors are
// read from the market's analytic hazard before the arbiter touches
// it, the same discipline the single-job path uses.
func CompileFleet(sc *Scenario) (*CompiledFleet, error) {
	if sc.Fleet == nil {
		return nil, fmt.Errorf("scenario %s: not a fleet scenario", sc.Name)
	}
	hz := sc.Fleet.Horizon
	curve, err := buildCurve(sc, hz)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	// Price shocks are compile-time in fleet mode: the curve every job
	// bids and bills against already includes them.
	for _, ev := range sc.Events {
		if ev.Kind != "price-shock" {
			continue
		}
		at := simtime.Time(ev.At)
		end := simtime.Time(hz)
		if ev.Duration > 0 && at.Add(ev.Duration) < end {
			end = at.Add(ev.Duration)
		}
		curve, err = curve.Scaled(at, end, ev.Factor)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}

	vm := hw.NC6v3
	if sc.Fleet.VMGPUs == 4 {
		vm = hw.NC24v3
	}
	mk := spot.NewMarket(sc.Fleet.VMGPUs, sc.Market.BaseCapacity, sc.Market.Seed)
	if sc.Market.MeanHold > 0 {
		mk.MeanHold = sc.Market.MeanHold
	}

	c := &CompiledFleet{observed: observed{Scenario: sc}, Market: mk, Curve: curve, Horizon: hz, ScriptEvents: len(sc.Events)}
	if curve != nil {
		c.PoolMeter = price.NewMeter(curve)
	}
	for _, js := range sc.Jobs {
		spec, ok := specByName(js.Model)
		if !ok {
			return nil, fmt.Errorf("scenario %s: job %q: unknown model %q", sc.Name, js.Name, js.Model)
		}
		cluster := hw.SpotCluster(vm, js.ClusterGPUs)
		job, err := core.NewJob(spec, cluster, js.Batch, js.Seed)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: job %q: %w", sc.Name, js.Name, err)
		}
		opts := manager.DefaultOptions()
		opts.Objective = objectiveFor(js.Objective, js.DeadlineAt, js.TargetExamples, hz)
		if js.GapPrior == "market" {
			vms := (js.TargetGPUs + mk.GPUsPerVM - 1) / mk.GPUsPerVM
			opts.EventGapPrior = mk.ExpectedNextEvent(0, vms)
		}
		var sub *price.Meter
		if curve != nil {
			sub = price.NewTeeMeter(curve, c.PoolMeter)
			opts.Prices = curve
			opts.Meter = sub
		}
		mg := manager.NewWithPlanner(job.Inputs(), job.Testbed(), job.Planner(), opts, js.ManagerSeed)
		c.Jobs = append(c.Jobs, &fleet.Job{
			Name:       js.Name,
			Mgr:        mg,
			TargetGPUs: js.TargetGPUs,
			MinGPUs:    js.MinGPUs,
			Priority:   js.Priority,
			Objective:  opts.Objective,
		})
		c.JobMeters = append(c.JobMeters, sub)
	}

	var pre []fleet.ScriptedPreempt
	var outs []fleet.ScriptedOutage
	for _, ev := range sc.Events {
		switch ev.Kind {
		case "preempt":
			pre = append(pre, fleet.ScriptedPreempt{At: simtime.Time(ev.At), Count: ev.Count})
		case "zone-outage":
			outs = append(outs, fleet.ScriptedOutage{At: simtime.Time(ev.At), Zone: ev.Domain})
		}
	}
	vseed := sc.Fleet.VictimSeed
	if vseed == 0 {
		vseed = sc.Market.Seed + 104729
	}
	c.Opts = fleet.Options{
		Horizon:    hz,
		Probe:      sc.Market.Probe,
		Prices:     curve,
		Preempts:   pre,
		Zones:      sc.Fleet.Zones,
		Outages:    outs,
		VictimSeed: vseed,
	}
	if telemetryDeclared(sc) {
		c.EnableTelemetry()
	}
	return c, nil
}

// FleetJobRun is one job's outcome within a fleet run.
type FleetJobRun struct {
	Name   string
	Points []manager.TimelinePoint
	Stats  manager.Stats
	Events []spot.Event
	// Report is the job's own single-job-shaped report, built from its
	// delivered event stream and timeline exactly as a direct run's
	// report would be.
	Report *Report
}

// FleetResult is one fleet scenario execution.
type FleetResult struct {
	Compiled *CompiledFleet
	Jobs     []FleetJobRun
	Audit    *fleet.Audit
	Report   *FleetReport
}

// RunFleet compiles and executes a fleet-mode scenario.
func RunFleet(sc *Scenario) (*FleetResult, error) {
	c, err := CompileFleet(sc)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

// Run executes an already-compiled fleet scenario, once: the run
// consumes the compiled market and charges the compiled meters, so a
// second call on the same CompiledFleet returns an error rather than a
// diverging run. Compile again to replay; runs of fresh compiles are
// bit-identical.
func (c *CompiledFleet) Run() (*FleetResult, error) {
	sc := c.Scenario
	scope, err := c.claim()
	if err != nil {
		return nil, err
	}
	opts := c.Opts
	opts.Obs = scope
	res, err := fleet.Run(c.Market, c.Jobs, opts)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	out := &FleetResult{Compiled: c, Audit: res.Audit}
	for i, jr := range res.Jobs {
		synth := &Compiled{
			observed: observed{
				Scenario: &Scenario{Name: sc.Name + "/" + jr.Name, Description: sc.Description},
				met:      c.met,
			},
			Horizon: c.Horizon,
			Events:  jr.Events,
		}
		synth.ScriptEvents = c.ScriptEvents
		out.Jobs = append(out.Jobs, FleetJobRun{
			Name:   jr.Name,
			Points: jr.Points,
			Stats:  jr.Stats,
			Events: jr.Events,
			Report: buildReport(synth, jr.Points, jr.Stats),
		})
		if c.met != nil {
			c.met.Gauge("planner."+jr.Name+".cost_hit_rate", c.Jobs[i].Mgr.Plan.Stats().HitRate())
			if i < len(c.JobMeters) && c.JobMeters[i] != nil {
				c.met.Gauge("dollars."+jr.Name+".total", c.JobMeters[i].Total())
				c.met.Gauge("dollars."+jr.Name+".compute", c.JobMeters[i].InBucket(price.Compute))
				c.met.Gauge("dollars."+jr.Name+".reconfig", c.JobMeters[i].InBucket(price.Reconfig))
				c.met.Gauge("dollars."+jr.Name+".idle", c.JobMeters[i].InBucket(price.Idle))
			}
		}
	}
	if c.met != nil && c.PoolMeter != nil {
		c.met.Gauge("dollars.pool", c.PoolMeter.Total())
	}
	out.Report = buildFleetReport(c, out)
	out.Report.SLOs, out.Report.Violations, out.Report.Obs = c.finish(out.Report.Violations)
	return out, nil
}

// FleetReport is the structured outcome of a fleet run: one
// single-job-shaped report per tenant, the arbiter's lease ledger, the
// shared pool bill and the aggregated invariant violations. It
// marshals to stable JSON, so a bit-identical replay emits
// byte-identical report files.
type FleetReport struct {
	Scenario    string `json:"scenario"`
	Version     int    `json:"version"`
	Description string `json:"description,omitempty"`

	HorizonHours float64 `json:"horizon_hours"`

	Jobs    []*Report     `json:"jobs"`
	Arbiter ArbiterReport `json:"arbiter"`

	// PoolDollars is the shared fleet bill (zero without prices);
	// JobDollars the per-job tee-meter bills, which must sum to it.
	PoolDollars float64   `json:"pool_dollars"`
	JobDollars  []float64 `json:"job_dollars"`

	// Violations aggregates the arbiter audit's structural violations,
	// every job's report violations, the shared-bill sum check and
	// enforce-mode SLO breaches.
	Violations []string `json:"violations"`

	// SLOs is the per-rule outcome of the scenario's declarative SLO
	// monitors (each rule scoped to one job's series). Absent — and
	// the report bytes unchanged — when the scenario declares none.
	SLOs []obs.SLOResult `json:"slo,omitempty"`

	// Obs is the deterministic (SimOnly) metrics-registry snapshot of
	// an observed run — wall-clock self-profiling excluded, so replays
	// stay byte-identical. Absent (and the report bytes unchanged)
	// when the run was not observed.
	Obs *obs.Snap `json:"obs,omitempty"`
}

// ArbiterReport summarizes the arbiter's lease ledger.
type ArbiterReport struct {
	PoolEvents     int `json:"pool_events"`
	Leases         int `json:"leases"`
	Revocations    int `json:"revocations"`
	Releases       int `json:"releases"`
	ReLeases       int `json:"re_leases"`
	MarketPreempts int `json:"market_preempts"`
	ScriptedKills  int `json:"scripted_kills"`
	// ZoneOutages counts scripted zone outages; omitted (keeping older
	// fleet report bytes unchanged) when zero.
	ZoneOutages int `json:"zone_outages,omitempty"`
	Cascades    int `json:"cascades"`
}

func buildFleetReport(c *CompiledFleet, res *FleetResult) *FleetReport {
	sc := c.Scenario
	a := res.Audit
	r := &FleetReport{
		Scenario:     sc.Name,
		Version:      Version,
		Description:  sc.Description,
		HorizonHours: simtime.Time(c.Horizon).Hours(),
		Arbiter: ArbiterReport{
			PoolEvents:     a.PoolEvents,
			Leases:         a.Leases,
			Revocations:    a.Revocations,
			Releases:       a.Releases,
			ReLeases:       a.ReLeases,
			MarketPreempts: a.MarketPreempts,
			ScriptedKills:  a.ScriptedKills,
			ZoneOutages:    a.ZoneOutages,
			Cascades:       len(a.Cascades),
		},
		JobDollars: []float64{},
		Violations: []string{},
	}
	for _, v := range a.Violations {
		r.Violations = append(r.Violations, "arbiter: "+v)
	}
	for i, jr := range res.Jobs {
		r.Jobs = append(r.Jobs, jr.Report)
		for _, v := range jr.Report.Violations {
			r.Violations = append(r.Violations, fmt.Sprintf("job %s: %s", jr.Name, v))
		}
		var spent float64
		if i < len(c.JobMeters) && c.JobMeters[i] != nil {
			spent = c.JobMeters[i].Total()
		}
		r.JobDollars = append(r.JobDollars, spent)
	}
	if c.PoolMeter != nil {
		r.PoolDollars = c.PoolMeter.Total()
		var sum float64
		for _, d := range r.JobDollars {
			sum += d
		}
		if diff := math.Abs(sum - r.PoolDollars); diff > 1e-6*math.Max(1, r.PoolDollars) {
			r.Violations = append(r.Violations,
				fmt.Sprintf("job bills sum to %.9f but the pool bill is %.9f (shared-bill mismatch)", sum, r.PoolDollars))
		}
	}
	return r
}

// JSON renders the fleet report as indented JSON.
func (r *FleetReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Summary renders the human-readable fleet run summary.
func (r *FleetReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet %s: %.1fh horizon, %d jobs\n", r.Scenario, r.HorizonHours, len(r.Jobs))
	a := r.Arbiter
	fmt.Fprintf(&b, "arbiter:   %d pool events, %d leases (%d re-leases), %d revocations in %d cascades\n",
		a.PoolEvents, a.Leases, a.ReLeases, a.Revocations, a.Cascades)
	fmt.Fprintf(&b, "           %d market preemptions, %d scripted kills, %d voluntary releases\n",
		a.MarketPreempts, a.ScriptedKills, a.Releases)
	for i, jr := range r.Jobs {
		s := jr.Stats
		fmt.Fprintf(&b, "job %-12s %d mini-batches (%.2fM examples), %d morphs, %d preemptions",
			strings.TrimPrefix(jr.Scenario, r.Scenario+"/")+":", s.MiniBatches, s.Examples/1e6, s.Morphs, s.Preemptions)
		if i < len(r.JobDollars) && r.JobDollars[i] > 0 {
			fmt.Fprintf(&b, ", $%.2f", r.JobDollars[i])
		}
		b.WriteString("\n")
	}
	if r.PoolDollars > 0 {
		fmt.Fprintf(&b, "pool bill: $%.2f\n", r.PoolDollars)
	}
	for _, s := range r.SLOs {
		status := "OK"
		if !s.OK {
			status = fmt.Sprintf("BREACHED %dx (worst %g)", s.Breaches, s.Worst)
		}
		fmt.Fprintf(&b, "slo %-24s %s [%s, job %s] — %s\n", s.Name+":", s.Expr, s.Mode, s.Job, status)
	}
	if len(r.Violations) == 0 {
		b.WriteString("invariants: OK\n")
	} else {
		fmt.Fprintf(&b, "invariants: %d VIOLATIONS\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	if r.Obs != nil && len(r.Obs.Histograms) > 0 {
		b.WriteString("obs:\n")
		b.WriteString(r.Obs.Summary())
	}
	return b.String()
}
