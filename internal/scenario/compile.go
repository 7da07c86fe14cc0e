package scenario

import (
	"fmt"
	"sort"

	"repro/internal/autoconfig"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/price"
	"repro/internal/simtime"
	"repro/internal/spot"
	"repro/internal/testbed"
)

// Compiled is a scenario resolved into the exact inputs the manager
// consumes: a calibrated job, the testbed to measure on, the merged
// spot-event stream (market churn plus scripted/chaos preemptions),
// the manager's options and its Degrade/NetDegrade/ObjChange
// schedules. Compilation is deterministic: the same scenario always
// compiles to the same inputs, so runs of two compiles of one
// scenario are bit-identical. A Compiled runs once (see Run).
type Compiled struct {
	observed
	Job      *core.Job
	TB       *testbed.Testbed
	Events   []spot.Event
	Opts     manager.Options
	Degrade  []manager.Degradation
	NetSched []manager.NetDegradation
	ObjSched []manager.ObjectiveChange
	Outages  []manager.DomainOutage
	Horizon  simtime.Duration
	// Skipped counts scripted/chaos events dropped because no live VM
	// was available to victimize at their instant.
	Skipped int
	// ScriptEvents counts the scripted+chaos events applied (after
	// chaos expansion, before victim resolution).
	ScriptEvents int
}

func objectiveFor(name string, deadlineAt simtime.Duration, targetExamples float64, horizon simtime.Duration) autoconfig.Objective {
	switch name {
	case "min-dollar-per-example":
		return autoconfig.Objective{Kind: autoconfig.ObjMinDollarPerExample}
	case "deadline":
		dl := deadlineAt
		if dl <= 0 {
			dl = horizon
		}
		return autoconfig.Objective{
			Kind:           autoconfig.ObjDeadline,
			DeadlineAt:     simtime.Time(dl),
			TargetExamples: targetExamples,
		}
	default:
		return autoconfig.Objective{Kind: autoconfig.ObjMaxThroughput}
	}
}

// Compile resolves a scenario: calibrates the job, generates the
// market's base event trace, expands the chaos spec, resolves victims
// against the live fleet, and assembles manager options. The job
// calibration dominates the cost; everything else is cheap.
func Compile(sc *Scenario) (*Compiled, error) {
	spec, ok := model.ByName(sc.Job.Model)
	if !ok {
		return nil, fmt.Errorf("scenario %s: unknown model %q", sc.Name, sc.Job.Model)
	}
	vm := hw.NC6v3
	if sc.Job.VMGPUs == 4 {
		vm = hw.NC24v3
	}
	cluster := hw.SpotCluster(vm, sc.Job.ClusterGPUs)
	if t := sc.Job.Topology; t.Defined() {
		cluster.Topo = hw.SpotTopology(t.Zones, t.RacksPerZone, t.NodesPerRack)
		cluster.Topo.ZonesPerRegion = t.ZonesPerRegion
	}
	job, err := core.NewJob(spec, cluster, sc.Job.Batch, sc.Job.Seed)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}

	c := &Compiled{observed: observed{Scenario: sc}, Job: job, Horizon: sc.Run.Horizon}
	switch sc.Run.Testbed {
	case "fresh":
		c.TB = testbed.New(cluster, sc.Run.TestbedSeed)
	default:
		c.TB = job.Testbed()
	}

	// Price curve, with scripted/chaos shocks layered on. Shock
	// windows that overlap compound multiplicatively.
	curve, err := buildCurve(sc, sc.Run.Horizon)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}

	// Manager options.
	opts := manager.DefaultOptions()
	switch sc.Run.Policy {
	case "modeled":
		opts.Policy = manager.PolicyModeled
	case "constant":
		opts.Policy = manager.PolicyConstant
	}
	opts.Objective = objectiveFor(sc.Run.Objective, sc.Run.DeadlineAt, sc.Run.TargetExamples, sc.Run.Horizon)
	opts.MeasureStragglers = sc.Run.MeasureStragglers
	if sc.Run.HeartbeatEvery >= 0 {
		opts.HeartbeatEvery = sc.Run.HeartbeatEvery
	}
	opts.Prices = curve
	if sc.Checkpoint.Replicas > 1 {
		spread := hw.DomainZone
		switch sc.Checkpoint.Spread {
		case "rack":
			spread = hw.DomainRack
		case "region":
			spread = hw.DomainRegion
		}
		opts.Replication = checkpoint.Policy{Replicas: sc.Checkpoint.Replicas, Spread: spread}
	}

	// Market: the analytic gap prior must be read before the trace is
	// generated, because trace generation advances the market's state.
	mk := spot.NewMarket(sc.Job.VMGPUs, sc.Market.BaseCapacity, sc.Market.Seed)
	if sc.Market.MeanHold > 0 {
		mk.MeanHold = sc.Market.MeanHold
	}
	if sc.Run.GapPrior == "market" {
		vms := (sc.Run.TargetGPUs + mk.GPUsPerVM - 1) / mk.GPUsPerVM
		opts.EventGapPrior = mk.ExpectedNextEvent(0, vms)
	}
	c.Opts = opts
	base := spot.EventTrace(mk, sc.Run.TargetGPUs, sc.Run.Horizon, sc.Market.Probe)

	// Script: explicit events plus the expanded chaos spec, merged in
	// time order (scripted events win ties, in file order).
	script := append([]Event(nil), sc.Events...)
	if sc.Chaos != nil {
		script = append(script, sc.Chaos.Expand(sc.Run.Horizon)...)
	}
	sort.SliceStable(script, func(i, j int) bool { return script[i].At < script[j].At })
	c.ScriptEvents = len(script)

	if err := c.merge(base, script, curve); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if telemetryDeclared(sc) {
		c.EnableTelemetry()
	}
	return c, nil
}

func buildCurve(sc *Scenario, runHorizon simtime.Duration) (*price.Curve, error) {
	var curve *price.Curve
	var err error
	switch sc.Prices.Kind {
	case "none":
		return nil, nil
	case "constant":
		curve = price.Constant(sc.Prices.PerGPUHour)
	case "mean-reverting":
		hz := sc.Prices.Horizon
		if hz <= 0 {
			hz = runHorizon
		}
		curve, err = price.MeanReverting(price.MROptions{
			Mean:      sc.Prices.Mean,
			Vol:       sc.Prices.Vol,
			Reversion: sc.Prices.Reversion,
			Floor:     sc.Prices.Floor,
			Step:      sc.Prices.Step,
			Horizon:   hz,
		}, sc.Prices.Seed)
		if err != nil {
			return nil, err
		}
	}
	return curve, nil
}

// merge interleaves the market's base trace with the scripted events,
// tracking the live fleet so victim picks land on VMs that actually
// exist at each instant, and drops market preemptions of VMs the
// script already killed. The market's precomputed trace does not
// re-grow to replace scripted kills — a scripted mass-preemption is
// capacity the provider reclaimed on top of its own churn.
func (c *Compiled) merge(base []spot.Event, script []Event, curve *price.Curve) error {
	sc := c.Scenario
	topo := c.Job.Cluster.Topo
	seed := sc.Run.VictimSeed
	if seed == 0 {
		if sc.Chaos != nil {
			seed = sc.Chaos.Seed + 104729
		} else {
			seed = sc.Market.Seed + 104729
		}
	}
	rng := simtime.NewRand(seed)

	live := map[int]int{} // vm id → gpus
	dead := map[int]bool{}
	liveIDs := func() []int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids
	}
	// Network episodes become a max-of-active-factors step function so
	// overlapping episodes compose instead of the first restore
	// cancelling a still-running one.
	type netEp struct {
		at, end simtime.Time
		factor  float64
	}
	var netEps []netEp

	bi := 0
	apply := func(upTo simtime.Time) {
		for bi < len(base) && base[bi].At <= upTo {
			ev := base[bi]
			bi++
			switch ev.Kind {
			case spot.Alloc:
				live[ev.VM] = ev.GPUs
			case spot.Preempt:
				if dead[ev.VM] {
					continue // script killed it first; not a fleet event anymore
				}
				delete(live, ev.VM)
			}
			c.Events = append(c.Events, ev)
		}
	}
	for _, ev := range script {
		at := simtime.Time(ev.At)
		apply(at)
		switch ev.Kind {
		case "preempt":
			for k := 0; k < ev.Count; k++ {
				ids := liveIDs()
				if len(ids) == 0 {
					c.Skipped++
					break
				}
				vm := ev.VM
				if vm < 0 || live[vm] == 0 {
					vm = ids[rng.Intn(len(ids))]
				}
				c.Events = append(c.Events, spot.Event{At: at, Kind: spot.Preempt, VM: vm, GPUs: live[vm]})
				delete(live, vm)
				dead[vm] = true
			}
		case "zone-outage", "rack-outage", "region-outage":
			// A correlated mass preemption of one whole failure domain:
			// every live VM mapped there dies at the instant, and the
			// manager additionally settles checkpoint survivability via
			// the paired DomainOutage record.
			level := hw.DomainZone
			switch ev.Kind {
			case "rack-outage":
				level = hw.DomainRack
			case "region-outage":
				level = hw.DomainRegion
			}
			if !topo.Defined() {
				c.Skipped++
				continue
			}
			dom := ev.Domain
			if dom < 0 {
				domSet := map[int]bool{}
				for _, id := range liveIDs() {
					domSet[topo.DomainOfVM(id, level)] = true
				}
				if len(domSet) == 0 {
					c.Skipped++
					continue
				}
				doms := make([]int, 0, len(domSet))
				for d := range domSet {
					doms = append(doms, d)
				}
				sort.Ints(doms)
				dom = doms[rng.Intn(len(doms))]
			}
			killed := 0
			for _, id := range liveIDs() {
				if topo.DomainOfVM(id, level) != dom {
					continue
				}
				c.Events = append(c.Events, spot.Event{At: at, Kind: spot.Preempt, VM: id, GPUs: live[id]})
				delete(live, id)
				dead[id] = true
				killed++
			}
			if killed == 0 {
				c.Skipped++
			}
			c.Outages = append(c.Outages, manager.DomainOutage{At: at, Level: level, Domain: dom})
		case "straggler", "degrade":
			ids := liveIDs()
			if len(ids) == 0 {
				c.Skipped++
				continue
			}
			vm := ev.VM
			if vm < 0 || live[vm] == 0 {
				vm = ids[rng.Intn(len(ids))]
			}
			c.Degrade = append(c.Degrade, manager.Degradation{VM: vm, At: at, Factor: ev.Factor})
		case "net-degrade":
			end := simtime.Time(c.Horizon)
			if ev.Duration > 0 && at.Add(ev.Duration) < end {
				end = at.Add(ev.Duration)
			}
			netEps = append(netEps, netEp{at: at, end: end, factor: ev.Factor})
		case "price-shock":
			end := simtime.Time(c.Horizon)
			if ev.Duration > 0 && at.Add(ev.Duration) < end {
				end = at.Add(ev.Duration)
			}
			shocked, err := curve.Scaled(at, end, ev.Factor)
			if err != nil {
				return err
			}
			curve, c.Opts.Prices = shocked, shocked
		case "objective":
			c.ObjSched = append(c.ObjSched, manager.ObjectiveChange{
				At:        at,
				Objective: objectiveFor(ev.Objective, ev.DeadlineAt, ev.TargetExamples, c.Horizon),
			})
		}
	}
	apply(simtime.Time(c.Horizon))

	// Flatten network episodes into factor-change entries.
	if len(netEps) > 0 {
		cuts := map[simtime.Time]bool{}
		for _, ep := range netEps {
			cuts[ep.at] = true
			cuts[ep.end] = true
		}
		times := make([]simtime.Time, 0, len(cuts))
		for t := range cuts {
			times = append(times, t)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		cur := 1.0
		for _, t := range times {
			f := 1.0
			for _, ep := range netEps {
				if ep.at <= t && t < ep.end && ep.factor > f {
					f = ep.factor
				}
			}
			if f != cur {
				c.NetSched = append(c.NetSched, manager.NetDegradation{At: t, Factor: f})
				cur = f
			}
		}
	}
	return nil
}
