// Package scenario is the declarative front door to the Varuna
// simulator: a versioned file format describing a training job, a spot
// market, an adversarial event script (preemption bursts, stragglers,
// fail-stutter degradation, network degradation, price shocks, deadline
// changes) and a seeded chaos generator that expands compact rate
// specs into concrete events. A scenario compiles into the exact
// inputs the manager (§4.6) already consumes — a spot.Event stream
// plus the manager's Degrade/NetDegrade/ObjChange schedules — so the
// same file with the same seeds replays to a bit-identical timeline,
// stats and dollar meter, and a structured report checks the
// robustness invariants (no lost progress, no double billing) after
// every run.
//
//	sc, _ := scenario.Load("scenarios/chaos-stress.yaml")
//	res, _ := scenario.Run(sc, "")
//	fmt.Println(res.Report.Summary())
package scenario

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Version is the scenario format version this package reads.
const Version = 1

// Scenario is one parsed scenario file.
type Scenario struct {
	// Name identifies the scenario in reports and golden files.
	Name string
	// Description is free-form documentation.
	Description string
	// Job describes the training job (model, cluster, batch, seed).
	Job JobSpec
	// Market describes the spot market the fleet rides.
	Market MarketSpec
	// Run tunes the manager run (horizon, seeds, policy, objective).
	Run RunSpec
	// Prices optionally attaches a spot price curve.
	Prices PriceSpec
	// Events is the explicit scripted event list, in file order.
	Events []Event
	// Chaos, when present, generates additional events from rates.
	Chaos *Chaos
	// Fleet, when present, switches the scenario to multi-job fleet
	// mode: Jobs share one market through the fleet arbiter, and the
	// Job/Run blocks are not used.
	Fleet *FleetSpec
	// Jobs is the fleet-mode tenant list.
	Jobs []FleetJobSpec
	// Checkpoint configures §4.5 checkpoint replication across failure
	// domains (single-job mode only; requires a job topology).
	Checkpoint CheckpointSpec
	// Telemetry, when present, enables continuous series sampling for
	// plain `varuna-sim run` (the exporter commands enable it
	// regardless).
	Telemetry *TelemetrySpec
	// SLOs is the declarative monitor list; a non-empty list implies
	// telemetry.
	SLOs []SLOSpec
}

// TelemetrySpec configures continuous series sampling (the
// `telemetry:` block).
type TelemetrySpec struct {
	// SampleEvery is the periodic sampling cadence (default 1m;
	// events always sample regardless).
	SampleEvery simtime.Duration
	// Ring caps each series' retained points (default
	// obs.DefaultSeriesCap).
	Ring int
}

// SLOSpec is one declarative SLO rule (the `slos:` list): an
// expression like "recovery-p99 < 120s" evaluated online over the
// sampled series, with optional rolling and burn-rate windows.
type SLOSpec struct {
	// Name identifies the rule in reports ("" defaults to the
	// expression's left-hand side).
	Name string
	// Expr is "<series>[-agg] <op> <threshold>" (obs.ParseSLOExpr).
	Expr string
	// Window bounds the rolling aggregation window (0 = unbounded).
	Window simtime.Duration
	// For is the burn window: how long a violation must persist
	// before it breaches.
	For simtime.Duration
	// Mode is "warn" (default: report only) or "enforce" (a breach
	// fails the run like an invariant violation).
	Mode string
	// Job scopes the rule to one fleet job (required in fleet mode,
	// forbidden in single-job mode).
	Job string
}

// TopologySpec arranges the job's cluster into failure domains (the
// `job.topology:` block). Zero value means flat — the pre-topology
// model, bit-identical to scenarios without the block.
type TopologySpec struct {
	// Zones is the availability-zone count; >= 2 defines a topology.
	Zones int
	// RacksPerZone and NodesPerRack shape the inner tiers (default 1).
	RacksPerZone int
	NodesPerRack int
	// ZonesPerRegion groups zones into regions (0 = one region
	// spanning every zone). Must divide into >= 2 regions to enable
	// region-outage events and region-spread checkpoints.
	ZonesPerRegion int
}

// Defined reports whether the spec names more than one failure domain.
func (t TopologySpec) Defined() bool { return t.Zones > 1 }

// Regions is the region count the spec defines (1 when flat or when
// zones-per-region is unset).
func (t TopologySpec) Regions() int {
	if !t.Defined() || t.ZonesPerRegion <= 0 {
		return 1
	}
	return (t.Zones + t.ZonesPerRegion - 1) / t.ZonesPerRegion
}

// CheckpointSpec configures checkpoint replication (the `checkpoint:`
// block): every shard is written to Replicas distinct domains at the
// Spread level, so losing one whole domain leaves a live copy.
type CheckpointSpec struct {
	// Replicas is the copy count; <= 1 disables replication.
	Replicas int
	// Spread is the anti-affinity level: "zone" (default), "rack" or
	// "region".
	Spread string
}

// FleetSpec parameterizes a multi-job fleet run (the `fleet:` block).
type FleetSpec struct {
	// Horizon is the simulated duration.
	Horizon simtime.Duration
	// VMGPUs is the shared spot VM size (1 or 4 GPUs).
	VMGPUs int
	// VictimSeed seeds the scripted reclaims' victim draws. 0 derives
	// it from the market seed.
	VictimSeed int64
	// Zones spreads the shared pool's VMs round-robin over this many
	// availability zones (id % zones); >= 2 enables zone-outage events.
	// 0 (default) keeps the pool flat.
	Zones int
}

// FleetJobSpec is one tenant in a fleet-mode scenario.
type FleetJobSpec struct {
	// Name labels the job in reports and audits.
	Name string
	// Model is a model-zoo name ("GPT2-2.5B").
	Model string
	// ClusterGPUs sizes the job's testbed resource pool.
	ClusterGPUs int
	// Batch is the global mini-batch size.
	Batch int
	// Seed seeds job calibration; ManagerSeed the manager's streams.
	Seed        int64
	ManagerSeed int64
	// TargetGPUs is the capacity the job bids for; MinGPUs its
	// guaranteed floor (restored by revocation cascades).
	TargetGPUs int
	MinGPUs    int
	// Priority is the job's base bid.
	Priority float64
	// GapPrior selects the morph-or-hold stable-window prior ("default"
	// or "market"), as in RunSpec.
	GapPrior string
	// Objective/DeadlineAt/TargetExamples select the job's objective,
	// with RunSpec semantics (DeadlineAt 0 means the fleet horizon).
	Objective      string
	DeadlineAt     simtime.Duration
	TargetExamples float64
}

// JobSpec names the model and resource pool.
type JobSpec struct {
	// Model is a model-zoo name ("GPT2-2.5B").
	Model string
	// VMGPUs is the spot VM size (1 or 4 GPUs).
	VMGPUs int
	// ClusterGPUs sizes the testbed resource pool.
	ClusterGPUs int
	// Batch is the global mini-batch size.
	Batch int
	// Seed seeds job calibration and the job's own testbed.
	Seed int64
	// Topology arranges the cluster into failure domains; zero = flat.
	Topology TopologySpec
}

// MarketSpec parameterizes the spot market generating the base event
// trace.
type MarketSpec struct {
	// BaseCapacity is the market's mean spare capacity in VMs.
	BaseCapacity int
	// Seed seeds the market's stochastic capacity process.
	Seed int64
	// MeanHold optionally overrides the mean VM hold time.
	MeanHold simtime.Duration
	// Probe is the allocation-probe cadence (default 10m).
	Probe simtime.Duration
}

// RunSpec tunes the manager run.
type RunSpec struct {
	// TargetGPUs is the fleet size the manager keeps requesting.
	TargetGPUs int
	// Horizon is the simulated duration.
	Horizon simtime.Duration
	// ManagerSeed seeds the manager's stochastic streams.
	ManagerSeed int64
	// Testbed selects the cluster the manager measures on: "job" (the
	// job's own calibrated testbed, the elastic-experiment wiring) or
	// "fresh" (a new identically-parameterized testbed seeded with
	// TestbedSeed, the ablation wiring).
	Testbed string
	// TestbedSeed seeds a "fresh" testbed.
	TestbedSeed int64
	// GapPrior selects the morph-or-hold stable-window prior:
	// "default" (the manager's 30m fallback) or "market" (the market's
	// analytic expected-next-event hazard).
	GapPrior string
	// Policy is the reconfiguration pricing policy: "morph-or-hold"
	// (default), "modeled" or "constant".
	Policy string
	// Objective selects what morphs optimize: "max-throughput"
	// (default), "min-dollar-per-example" or "deadline".
	Objective string
	// DeadlineAt and TargetExamples parameterize the deadline
	// objective (DeadlineAt 0 means the horizon).
	DeadlineAt     simtime.Duration
	TargetExamples float64
	// MeasureStragglers wires unflagged slow VMs into segment
	// measurements (manager.Options.MeasureStragglers).
	MeasureStragglers bool
	// HeartbeatEvery overrides the mid-segment heartbeat cadence when
	// >= 0 (-1, the unset default, keeps the manager default).
	HeartbeatEvery simtime.Duration
	// VictimSeed seeds scripted/chaos victim selection (which live VM
	// a preemption or degradation hits). 0 derives it from the chaos
	// seed, or the market seed when no chaos block is present.
	VictimSeed int64
}

// PriceSpec attaches a spot price curve.
type PriceSpec struct {
	// Kind is "none" (default), "constant" or "mean-reverting".
	Kind string
	// PerGPUHour prices a constant curve.
	PerGPUHour float64
	// Mean/Vol/Reversion/Floor/Step parameterize a mean-reverting
	// curve (price.MROptions).
	Mean, Vol, Reversion, Floor float64
	Step                        simtime.Duration
	// Horizon bounds the generated curve (0 = the run horizon).
	Horizon simtime.Duration
	// Seed seeds a mean-reverting curve.
	Seed int64
}

// Event is one scripted adversarial event. Kind selects which fields
// apply.
type Event struct {
	// At is the event instant, relative to run start.
	At simtime.Duration
	// Kind is one of "preempt", "straggler", "degrade", "net-degrade",
	// "price-shock", "objective", "zone-outage", "rack-outage",
	// "region-outage".
	Kind string
	// Count sizes a preemption burst (default 1).
	Count int
	// VM pins the victim VM id; -1 (default) picks a live VM with the
	// victim seed.
	VM int
	// Domain pins the failure domain a zone/rack/region-outage takes
	// out; -1 (default) draws a domain holding live VMs with the victim
	// seed. Fleet mode requires an explicit domain.
	Domain int
	// Factor is the slowdown (straggler/degrade/net-degrade) or price
	// multiplier (price-shock).
	Factor float64
	// Duration bounds a net-degrade or price-shock episode; 0 means
	// until the horizon.
	Duration simtime.Duration
	// Objective/DeadlineAt/TargetExamples re-target the manager (kind
	// "objective"), with the same semantics as RunSpec.
	Objective      string
	DeadlineAt     simtime.Duration
	TargetExamples float64
}

// Chaos is the compact seeded chaos spec: rates and shapes the
// generator expands into a concrete event script before compilation.
type Chaos struct {
	// Seed drives every generated stream; same spec + seed → same
	// events.
	Seed int64
	// PreemptsPerHour adds Poisson single-VM preemptions.
	PreemptsPerHour float64
	// BurstEvery/BurstSize add correlated mass-preemptions of
	// BurstSize VMs roughly every BurstEvery (±10% jitter).
	BurstEvery simtime.Duration
	BurstSize  int
	// StragglersPerHour adds Poisson sub-threshold straggler onsets
	// with factors uniform in StragglerFactor ([lo, hi]; default
	// [1.05, 1.18] — below the detection threshold).
	StragglersPerHour float64
	StragglerFactor   [2]float64
	// DegradesPerHour adds Poisson fail-stutter onsets with factors
	// uniform in DegradeFactor (default [1.25, 1.45] — above the
	// detection threshold, caught by heartbeats).
	DegradesPerHour float64
	DegradeFactor   [2]float64
	// NetEvery/NetFactor/NetDuration add periodic network-degradation
	// episodes.
	NetEvery    simtime.Duration
	NetFactor   [2]float64
	NetDuration simtime.Duration
	// ShockEvery/ShockFactor/ShockDuration add periodic price shocks.
	ShockEvery    simtime.Duration
	ShockFactor   float64
	ShockDuration simtime.Duration
	// ZoneOutageEvery/RackOutageEvery add periodic correlated
	// mass-preemptions of one whole failure domain (seeded domain
	// draws). Both require a job topology.
	ZoneOutageEvery simtime.Duration
	RackOutageEvery simtime.Duration
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return sc, nil
}

// Parse parses scenario file bytes, validating strictly: unknown keys,
// unknown kinds and out-of-range values are errors, so a typo cannot
// silently weaken a robustness scenario.
func Parse(data []byte) (*Scenario, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	top, ok := root.(map[string]ynode)
	if !ok {
		return nil, fmt.Errorf("top level must be a map")
	}
	d := &decoder{}
	t := d.section(top, "")

	if v := t.str("version", ""); v != strconv.Itoa(Version) {
		return nil, fmt.Errorf("unsupported version %q (want %d)", v, Version)
	}
	sc := &Scenario{
		Name:        t.str("name", ""),
		Description: t.str("description", ""),
	}

	_, hasFleet := t.m["fleet"]
	_, hasJobs := t.m["jobs"]
	if hasFleet || hasJobs {
		// Fleet mode: N jobs share one market through the arbiter. The
		// single-job blocks are rejected outright — their settings live
		// per job in jobs[].
		for _, k := range []string{"job", "run", "chaos", "checkpoint"} {
			if _, ok := t.m[k]; ok {
				t.used[k] = true
				d.errf("fleet mode: the %q block is not allowed (per-job settings live in jobs[])", k)
			}
		}
		fs := d.section(t.child("fleet"), "fleet")
		sc.Fleet = &FleetSpec{
			Horizon:    fs.dur("horizon", 0),
			VMGPUs:     fs.num("vm-gpus", 1),
			VictimSeed: fs.seed("victim-seed", 0),
			Zones:      fs.num("zones", 0),
		}
		fs.done()
		for i, jn := range t.list("jobs") {
			jm, ok := jn.(map[string]ynode)
			if !ok {
				d.errf("jobs[%d]: each job must be a map", i)
				continue
			}
			js := d.section(jm, fmt.Sprintf("jobs[%d]", i))
			sc.Jobs = append(sc.Jobs, FleetJobSpec{
				Name:           js.str("name", ""),
				Model:          js.str("model", "GPT2-2.5B"),
				ClusterGPUs:    js.num("cluster-gpus", 0),
				Batch:          js.num("batch", 8192),
				Seed:           js.seed("seed", 1),
				ManagerSeed:    js.seed("manager-seed", 1),
				TargetGPUs:     js.num("target-gpus", 0),
				MinGPUs:        js.num("min-gpus", 0),
				Priority:       js.float("priority", 1),
				GapPrior:       js.enum("gap-prior", "default", "default", "market"),
				Objective:      js.enum("objective", "max-throughput", "max-throughput", "min-dollar-per-example", "deadline"),
				DeadlineAt:     js.dur("deadline-at", 0),
				TargetExamples: js.float("target-examples", 0),
			})
			js.done()
		}
	} else {
		j := d.section(t.child("job"), "job")
		sc.Job = JobSpec{
			Model:       j.str("model", "GPT2-2.5B"),
			VMGPUs:      j.num("vm-gpus", 1),
			ClusterGPUs: j.num("cluster-gpus", 0),
			Batch:       j.num("batch", 8192),
			Seed:        j.seed("seed", 1),
		}
		if tn := j.child("topology"); tn != nil {
			ts := d.section(tn, "job.topology")
			sc.Job.Topology = TopologySpec{
				Zones:          ts.num("zones", 0),
				RacksPerZone:   ts.num("racks-per-zone", 1),
				NodesPerRack:   ts.num("nodes-per-rack", 1),
				ZonesPerRegion: ts.num("zones-per-region", 0),
			}
			ts.done()
		}
		j.done()

		if cn := t.child("checkpoint"); cn != nil {
			cs := d.section(cn, "checkpoint")
			sc.Checkpoint = CheckpointSpec{
				Replicas: cs.num("replicas", 0),
				Spread:   cs.enum("spread", "zone", "zone", "rack", "region"),
			}
			cs.done()
		}
	}

	m := d.section(t.child("market"), "market")
	sc.Market = MarketSpec{
		BaseCapacity: m.num("base-capacity", 0),
		Seed:         m.seed("seed", 1),
		MeanHold:     m.dur("mean-hold", 0),
		Probe:        m.dur("probe", 10*simtime.Minute),
	}
	m.done()

	if sc.Fleet == nil {
		r := d.section(t.child("run"), "run")
		sc.Run = RunSpec{
			TargetGPUs:        r.num("target-gpus", 0),
			Horizon:           r.dur("horizon", 0),
			ManagerSeed:       r.seed("manager-seed", 1),
			Testbed:           r.enum("testbed", "job", "job", "fresh"),
			TestbedSeed:       r.seed("testbed-seed", 1),
			GapPrior:          r.enum("gap-prior", "default", "default", "market"),
			Policy:            r.enum("policy", "morph-or-hold", "morph-or-hold", "modeled", "constant"),
			Objective:         r.enum("objective", "max-throughput", "max-throughput", "min-dollar-per-example", "deadline"),
			DeadlineAt:        r.dur("deadline-at", 0),
			TargetExamples:    r.float("target-examples", 0),
			MeasureStragglers: r.boolean("measure-stragglers", false),
			HeartbeatEvery:    r.dur("heartbeat-every", -1),
			VictimSeed:        r.seed("victim-seed", 0),
		}
		r.done()
	}

	if p := t.child("prices"); p != nil {
		ps := d.section(p, "prices")
		sc.Prices = PriceSpec{
			Kind:       ps.enum("kind", "none", "none", "constant", "mean-reverting"),
			PerGPUHour: ps.float("per-gpu-hour", 0),
			Mean:       ps.float("mean", 0),
			Vol:        ps.float("vol", 0),
			Reversion:  ps.float("reversion", 0),
			Floor:      ps.float("floor", 0),
			Step:       ps.dur("step", 0),
			Horizon:    ps.dur("horizon", 0),
			Seed:       ps.seed("seed", 1),
		}
		ps.done()
	} else {
		sc.Prices.Kind = "none"
	}

	if evs := t.list("events"); evs != nil {
		for i, en := range evs {
			em, ok := en.(map[string]ynode)
			if !ok {
				d.errf("events[%d]: each event must be a map", i)
				continue
			}
			es := d.section(em, fmt.Sprintf("events[%d]", i))
			ev := Event{
				At:   es.dur("at", 0),
				Kind: es.enum("kind", "", "preempt", "straggler", "degrade", "net-degrade", "price-shock", "objective", "zone-outage", "rack-outage", "region-outage"),
			}
			switch ev.Kind {
			case "preempt":
				ev.Count = es.num("count", 1)
				ev.VM = es.num("vm", -1)
			case "zone-outage", "rack-outage", "region-outage":
				ev.Domain = es.num("domain", -1)
			case "straggler", "degrade":
				ev.VM = es.num("vm", -1)
				ev.Factor = es.float("factor", 0)
			case "net-degrade", "price-shock":
				ev.Factor = es.float("factor", 0)
				ev.Duration = es.dur("duration", 0)
			case "objective":
				ev.Objective = es.enum("objective", "", "max-throughput", "min-dollar-per-example", "deadline")
				ev.DeadlineAt = es.dur("deadline-at", 0)
				ev.TargetExamples = es.float("target-examples", 0)
			}
			es.done()
			sc.Events = append(sc.Events, ev)
		}
	}

	if cn := t.child("chaos"); cn != nil && sc.Fleet == nil {
		cs := d.section(cn, "chaos")
		sc.Chaos = &Chaos{
			Seed:              cs.seed("seed", 1),
			PreemptsPerHour:   cs.float("preempts-per-hour", 0),
			BurstEvery:        cs.dur("burst-every", 0),
			BurstSize:         cs.num("burst-size", 0),
			StragglersPerHour: cs.float("stragglers-per-hour", 0),
			StragglerFactor:   cs.frange("straggler-factor", [2]float64{1.05, 1.18}),
			DegradesPerHour:   cs.float("degrades-per-hour", 0),
			DegradeFactor:     cs.frange("degrade-factor", [2]float64{1.25, 1.45}),
			NetEvery:          cs.dur("net-every", 0),
			NetFactor:         cs.frange("net-factor", [2]float64{1.5, 1.5}),
			NetDuration:       cs.dur("net-duration", 30*simtime.Minute),
			ShockEvery:        cs.dur("shock-every", 0),
			ShockFactor:       cs.float("shock-factor", 2),
			ShockDuration:     cs.dur("shock-duration", 45*simtime.Minute),
			ZoneOutageEvery:   cs.dur("zone-outage-every", 0),
			RackOutageEvery:   cs.dur("rack-outage-every", 0),
		}
		cs.done()
	}

	if tn := t.child("telemetry"); tn != nil {
		ts := d.section(tn, "telemetry")
		sc.Telemetry = &TelemetrySpec{
			SampleEvery: ts.dur("sample-every", simtime.Minute),
			Ring:        ts.num("ring", 0),
		}
		ts.done()
	}
	if sls := t.list("slos"); sls != nil {
		for i, sn := range sls {
			sm, ok := sn.(map[string]ynode)
			if !ok {
				d.errf("slos[%d]: each rule must be a map", i)
				continue
			}
			ss := d.section(sm, fmt.Sprintf("slos[%d]", i))
			sc.SLOs = append(sc.SLOs, SLOSpec{
				Name:   ss.str("name", ""),
				Expr:   ss.str("expr", ""),
				Window: ss.dur("window", 0),
				For:    ss.dur("for", 0),
				Mode:   ss.enum("mode", "warn", "warn", "enforce"),
				Job:    ss.str("job", ""),
			})
			ss.done()
		}
	}
	t.done()

	if d.err() == nil {
		d.validate(sc)
	}
	if err := d.err(); err != nil {
		return nil, err
	}
	return sc, nil
}

// validate cross-checks the decoded scenario.
func (d *decoder) validate(sc *Scenario) {
	if sc.Name == "" {
		d.errf("name: required")
	}
	if sc.Market.BaseCapacity < 1 {
		d.errf("market.base-capacity: required and positive")
	}
	switch sc.Prices.Kind {
	case "constant":
		if sc.Prices.PerGPUHour <= 0 {
			d.errf("prices.per-gpu-hour: required and positive for a constant curve")
		}
	case "mean-reverting":
		if sc.Prices.Mean <= 0 {
			d.errf("prices.mean: required and positive for a mean-reverting curve")
		}
	}
	d.validateTelemetry(sc)
	if sc.Fleet != nil {
		d.validateFleet(sc)
		return
	}
	if sc.Job.ClusterGPUs < 1 {
		d.errf("job.cluster-gpus: required and positive")
	}
	if sc.Job.VMGPUs != 1 && sc.Job.VMGPUs != 4 {
		d.errf("job.vm-gpus: must be 1 or 4, got %d", sc.Job.VMGPUs)
	}
	if sc.Job.Batch < 1 {
		d.errf("job.batch: must be positive")
	}
	if sc.Run.TargetGPUs < 1 {
		d.errf("run.target-gpus: required and positive")
	}
	if sc.Run.Horizon <= 0 {
		d.errf("run.horizon: required and positive")
	}
	topo := sc.Job.Topology
	if topo.Zones == 1 || topo.Zones < 0 {
		d.errf("job.topology.zones: must be >= 2 (or omit the block for a flat cluster), got %d", topo.Zones)
	}
	if topo.Zones != 0 && (topo.RacksPerZone < 1 || topo.NodesPerRack < 1) {
		d.errf("job.topology: racks-per-zone and nodes-per-rack must be positive")
	}
	if topo.ZonesPerRegion < 0 || topo.ZonesPerRegion > topo.Zones {
		d.errf("job.topology.zones-per-region: %d outside [0, zones]", topo.ZonesPerRegion)
	} else if topo.ZonesPerRegion > 0 && !topo.Defined() {
		d.errf("job.topology.zones-per-region: needs zones >= 2")
	}
	if sc.Checkpoint.Replicas < 0 {
		d.errf("checkpoint.replicas: must be non-negative, got %d", sc.Checkpoint.Replicas)
	}
	if sc.Checkpoint.Replicas > 1 && !topo.Defined() {
		d.errf("checkpoint.replicas: replication needs a job.topology block with zones >= 2")
	}
	if sc.Checkpoint.Spread == "region" && topo.Regions() < 2 {
		d.errf("checkpoint.spread: \"region\" needs job.topology.zones-per-region defining >= 2 regions")
	}
	priced := sc.Prices.Kind != "none"
	if sc.Run.Objective != "max-throughput" && !priced {
		d.errf("run.objective %q needs a prices block", sc.Run.Objective)
	}
	for i, ev := range sc.Events {
		at := fmt.Sprintf("events[%d] (%s)", i, ev.Kind)
		if ev.At < 0 || ev.At > sc.Run.Horizon {
			d.errf("%s: at %v outside [0, horizon]", at, ev.At)
		}
		switch ev.Kind {
		case "preempt":
			if ev.Count < 1 {
				d.errf("%s: count must be positive", at)
			}
		case "straggler", "degrade":
			if ev.Factor <= 1 {
				d.errf("%s: factor must exceed 1", at)
			}
		case "net-degrade":
			if ev.Factor < 1 {
				d.errf("%s: factor must be >= 1", at)
			}
		case "price-shock":
			if ev.Factor <= 0 {
				d.errf("%s: factor must be positive", at)
			}
			if !priced {
				d.errf("%s: needs a prices block", at)
			}
		case "objective":
			if ev.Objective != "max-throughput" && !priced {
				d.errf("%s: objective %q needs a prices block", at, ev.Objective)
			}
		case "zone-outage":
			if !topo.Defined() {
				d.errf("%s: needs a job.topology block with zones >= 2", at)
			} else if ev.Domain >= topo.Zones {
				d.errf("%s: domain %d outside [0, zones)", at, ev.Domain)
			}
		case "rack-outage":
			if !topo.Defined() {
				d.errf("%s: needs a job.topology block with zones >= 2", at)
			} else if ev.Domain >= topo.Zones*topo.RacksPerZone {
				d.errf("%s: domain %d outside [0, zones*racks-per-zone)", at, ev.Domain)
			}
		case "region-outage":
			if topo.Regions() < 2 {
				d.errf("%s: needs job.topology.zones-per-region defining >= 2 regions", at)
			} else if ev.Domain >= topo.Regions() {
				d.errf("%s: domain %d outside [0, regions)", at, ev.Domain)
			}
		}
	}
	if c := sc.Chaos; c != nil {
		if c.ShockEvery > 0 && !priced {
			d.errf("chaos.shock-every: needs a prices block")
		}
		if (c.ZoneOutageEvery > 0 || c.RackOutageEvery > 0) && !topo.Defined() {
			d.errf("chaos outage streams need a job.topology block with zones >= 2")
		}
		for _, rg := range []struct {
			name string
			r    [2]float64
		}{
			{"straggler-factor", c.StragglerFactor},
			{"degrade-factor", c.DegradeFactor},
			{"net-factor", c.NetFactor},
		} {
			if rg.r[0] > rg.r[1] || rg.r[0] < 1 {
				d.errf("chaos.%s: want [lo, hi] with 1 <= lo <= hi, got %v", rg.name, rg.r)
			}
		}
	}
}

// validateFleet cross-checks a fleet-mode scenario. Fleet runs accept
// only the event kinds the arbiter can arbitrate deterministically:
// scripted preemptions (seeded victim draws from the shared pool) and
// compile-time price shocks. Per-VM degradations and objective changes
// would need per-job victim routing the fleet does not define yet.
func (d *decoder) validateFleet(sc *Scenario) {
	priced := sc.Prices.Kind != "none"
	f := sc.Fleet
	if f.Horizon <= 0 {
		d.errf("fleet.horizon: required and positive")
	}
	if f.VMGPUs != 1 && f.VMGPUs != 4 {
		d.errf("fleet.vm-gpus: must be 1 or 4, got %d", f.VMGPUs)
	}
	if f.Zones == 1 || f.Zones < 0 {
		d.errf("fleet.zones: must be >= 2 (or omit for a flat pool), got %d", f.Zones)
	}
	if len(sc.Jobs) == 0 {
		d.errf("jobs: fleet mode needs at least one job")
	}
	names := map[string]bool{}
	for i, j := range sc.Jobs {
		at := fmt.Sprintf("jobs[%d]", i)
		if j.Name == "" {
			d.errf("%s.name: required", at)
		} else if names[j.Name] {
			d.errf("%s.name: duplicate %q", at, j.Name)
		}
		names[j.Name] = true
		if j.ClusterGPUs < 1 {
			d.errf("%s.cluster-gpus: required and positive", at)
		}
		if j.Batch < 1 {
			d.errf("%s.batch: must be positive", at)
		}
		if j.TargetGPUs < 1 {
			d.errf("%s.target-gpus: required and positive", at)
		}
		if j.MinGPUs < 0 || j.MinGPUs > j.TargetGPUs {
			d.errf("%s.min-gpus: %d outside [0, target-gpus]", at, j.MinGPUs)
		}
		if j.Objective != "max-throughput" && !priced {
			d.errf("%s.objective %q needs a prices block", at, j.Objective)
		}
	}
	for i, ev := range sc.Events {
		at := fmt.Sprintf("events[%d] (%s)", i, ev.Kind)
		if ev.At < 0 || ev.At > f.Horizon {
			d.errf("%s: at %v outside [0, horizon]", at, ev.At)
		}
		switch ev.Kind {
		case "preempt":
			if ev.Count < 1 {
				d.errf("%s: count must be positive", at)
			}
			if ev.VM >= 0 {
				d.errf("%s: vm pinning is not supported in fleet mode (victims are seeded draws)", at)
			}
		case "price-shock":
			if ev.Factor <= 0 {
				d.errf("%s: factor must be positive", at)
			}
			if !priced {
				d.errf("%s: needs a prices block", at)
			}
		case "zone-outage":
			if f.Zones < 2 {
				d.errf("%s: needs fleet.zones >= 2", at)
			} else if ev.Domain < 0 || ev.Domain >= f.Zones {
				d.errf("%s: fleet mode requires an explicit domain in [0, zones)", at)
			}
		default:
			d.errf("%s: fleet mode supports only preempt, price-shock and zone-outage events", at)
		}
	}
}

// validateTelemetry cross-checks the telemetry and slos blocks, which
// are shared between single-job and fleet modes.
func (d *decoder) validateTelemetry(sc *Scenario) {
	if ts := sc.Telemetry; ts != nil {
		if ts.SampleEvery < simtime.Second {
			d.errf("telemetry.sample-every: must be >= 1s, got %v", ts.SampleEvery)
		}
		if ts.Ring < 0 {
			d.errf("telemetry.ring: must be non-negative, got %d", ts.Ring)
		}
	}
	priced := sc.Prices.Kind != "none"
	jobs := map[string]bool{}
	for _, j := range sc.Jobs {
		jobs[j.Name] = true
	}
	names := map[string]bool{}
	for i, sl := range sc.SLOs {
		at := fmt.Sprintf("slos[%d]", i)
		if sl.Expr == "" {
			d.errf("%s.expr: required", at)
			continue
		}
		series, _, _, _, err := obs.ParseSLOExpr(sl.Expr)
		if err != nil {
			d.errf("%s.expr: %v", at, err)
			continue
		}
		// The left-hand side, its aggregate suffix stripped, must name
		// a series the manager samples (per job in fleet mode).
		if known := manager.SeriesNames(); !slices.Contains(known, series) {
			d.errf("%s.expr: unknown series %q (known: %s)", at, series, strings.Join(known, ", "))
		}
		if (series == "dollars" || series == "dollars-per-kex") && !priced {
			d.errf("%s.expr: series %q needs a prices block", at, series)
		}
		name := sl.EffectiveName()
		if names[name] {
			d.errf("%s: duplicate rule name %q", at, name)
		}
		names[name] = true
		if sl.Window < 0 || sl.For < 0 {
			d.errf("%s: window and for must be non-negative", at)
		}
		if sc.Fleet == nil {
			if sl.Job != "" {
				d.errf("%s.job: only valid in fleet mode", at)
			}
		} else if sl.Job == "" {
			d.errf("%s.job: required in fleet mode (series are per-job)", at)
		} else if !jobs[sl.Job] {
			d.errf("%s.job: no job named %q", at, sl.Job)
		}
	}
}

// EffectiveName is the rule's report name: Name, defaulting to the
// expression's left-hand side (e.g. "recovery-p99").
func (s SLOSpec) EffectiveName() string {
	if s.Name != "" {
		return s.Name
	}
	if f := strings.Fields(s.Expr); len(f) > 0 {
		return f[0]
	}
	return s.Expr
}

// decoder accumulates strict-decode errors across sections.
type decoder struct {
	errs []string
}

func (d *decoder) errf(format string, args ...any) {
	d.errs = append(d.errs, fmt.Sprintf(format, args...))
}

func (d *decoder) err() error {
	if len(d.errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(d.errs, "; "))
}

// section wraps one map node with typed, used-key-tracked accessors.
type section struct {
	d    *decoder
	name string
	m    map[string]ynode
	used map[string]bool
}

func (d *decoder) section(n ynode, name string) *section {
	s := &section{d: d, name: name, used: map[string]bool{}}
	switch v := n.(type) {
	case nil:
		s.m = map[string]ynode{}
	case map[string]ynode:
		s.m = v
	default:
		d.errf("%s: must be a map", name)
		s.m = map[string]ynode{}
	}
	return s
}

func (s *section) key(k string) string {
	if s.name == "" {
		return k
	}
	return s.name + "." + k
}

func (s *section) scalar(k string) (string, bool) {
	s.used[k] = true
	n, ok := s.m[k]
	if !ok {
		return "", false
	}
	str, ok := n.(string)
	if !ok {
		s.d.errf("%s: must be a scalar", s.key(k))
		return "", false
	}
	return str, true
}

// child returns a nested node without type-checking it (the caller
// wraps it in a section or list).
func (s *section) child(k string) ynode {
	s.used[k] = true
	return s.m[k]
}

func (s *section) list(k string) []ynode {
	s.used[k] = true
	n, ok := s.m[k]
	if !ok {
		return nil
	}
	l, ok := n.([]ynode)
	if !ok {
		s.d.errf("%s: must be a list", s.key(k))
		return nil
	}
	return l
}

func (s *section) str(k, def string) string {
	v, ok := s.scalar(k)
	if !ok {
		return def
	}
	return v
}

func (s *section) enum(k, def string, allowed ...string) string {
	v := s.str(k, def)
	for _, a := range allowed {
		if v == a {
			return v
		}
	}
	s.d.errf("%s: %q not one of %v", s.key(k), v, allowed)
	return def
}

func (s *section) num(k string, def int) int {
	v, ok := s.scalar(k)
	if !ok {
		return def
	}
	i, err := strconv.Atoi(v)
	if err != nil {
		s.d.errf("%s: %q is not an integer", s.key(k), v)
		return def
	}
	return i
}

func (s *section) seed(k string, def int64) int64 {
	v, ok := s.scalar(k)
	if !ok {
		return def
	}
	i, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		s.d.errf("%s: %q is not an integer", s.key(k), v)
		return def
	}
	return i
}

func (s *section) float(k string, def float64) float64 {
	v, ok := s.scalar(k)
	if !ok {
		return def
	}
	f, ok := parseFinite(v)
	if !ok {
		s.d.errf("%s: %q is not a finite number", s.key(k), v)
		return def
	}
	return f
}

func (s *section) boolean(k string, def bool) bool {
	v, ok := s.scalar(k)
	if !ok {
		return def
	}
	switch v {
	case "true":
		return true
	case "false":
		return false
	}
	s.d.errf("%s: %q is not true/false", s.key(k), v)
	return def
}

func (s *section) dur(k string, def simtime.Duration) simtime.Duration {
	v, ok := s.scalar(k)
	if !ok {
		return def
	}
	d, err := parseDuration(v)
	if err != nil {
		s.d.errf("%s: %v", s.key(k), err)
		return def
	}
	return d
}

func (s *section) frange(k string, def [2]float64) [2]float64 {
	s.used[k] = true
	n, ok := s.m[k]
	if !ok {
		return def
	}
	l, ok := n.([]ynode)
	if !ok || len(l) != 2 {
		s.d.errf("%s: must be [lo, hi]", s.key(k))
		return def
	}
	var out [2]float64
	for i, e := range l {
		str, _ := e.(string)
		f, ok := parseFinite(str)
		if !ok {
			s.d.errf("%s: %q is not a finite number", s.key(k), str)
			return def
		}
		out[i] = f
	}
	return out
}

// done flags unknown keys in the section.
func (s *section) done() {
	var unknown []string
	for k := range s.m {
		if !s.used[k] {
			unknown = append(unknown, s.key(k))
		}
	}
	sort.Strings(unknown)
	for _, k := range unknown {
		s.d.errf("unknown key %q", k)
	}
}

// parseFinite parses a decimal number, refusing NaN and infinities
// (strconv accepts "NaN", "Inf" and out-of-range values as ±Inf).
func parseFinite(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && !math.IsNaN(f) && !math.IsInf(f, 0)
}

// parseDuration parses single-unit durations: "90s", "10m", "24h",
// "1.5h", "500ms", "0". The value must be finite and fit in a
// simtime.Duration.
func parseDuration(s string) (simtime.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	units := []struct {
		suffix string
		unit   simtime.Duration
	}{
		{"ms", simtime.Millisecond},
		{"s", simtime.Second},
		{"m", simtime.Minute},
		{"h", simtime.Hour},
	}
	for _, u := range units {
		if !strings.HasSuffix(s, u.suffix) {
			continue
		}
		num := strings.TrimSuffix(s, u.suffix)
		f, ok := parseFinite(num)
		if !ok {
			break
		}
		// Converting a value outside int64 is implementation-defined.
		if v := f*float64(u.unit) + 0.5; v >= -(1<<63) && v < 1<<63 {
			return simtime.Duration(v), nil
		}
		return 0, fmt.Errorf("%q is out of range", s)
	}
	return 0, fmt.Errorf("%q is not a duration (use e.g. 30s, 10m, 1.5h)", s)
}
