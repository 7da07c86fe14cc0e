package fleet

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/autoconfig"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/price"
	"repro/internal/simtime"
	"repro/internal/spot"
	"repro/internal/testbed"
)

// testFleet builds a three-tenant fleet over one small market: a
// deadline job, a min-$/example job and a plain throughput job, with
// floors tight enough that market dips and scripted reclaims force
// revocation cascades. Shared across the invariant tests; seeds vary.
type testFleet struct {
	mk    *spot.Market
	jobs  []*Job
	pool  *price.Meter
	sub   []*price.Meter
	curve *price.Curve
	opts  Options
}

func buildTestFleet(t *testing.T, seed int64) *testFleet {
	t.Helper()
	horizon := 24 * simtime.Hour
	curve, err := price.MeanReverting(price.MROptions{
		Mean: 2.40, Vol: 0.18, Reversion: 0.12, Horizon: horizon,
	}, seed+100)
	if err != nil {
		t.Fatal(err)
	}
	pool := price.NewMeter(curve)

	mkJob := func(name string, seedOff int64, target, min int, prio float64, obj autoconfig.Objective) (*Job, *price.Meter) {
		cluster := hw.SpotCluster(hw.NC6v3, 48)
		job, err := core.NewJob(model.GPT2XL2B(), cluster, 8192, seed+seedOff)
		if err != nil {
			t.Fatal(err)
		}
		opts := manager.DefaultOptions()
		sub := price.NewTeeMeter(curve, pool)
		opts.Meter = sub
		opts.Objective = obj
		mg := manager.NewWithPlanner(job.Inputs(), job.Testbed(), job.Planner(), opts, seed+seedOff+2)
		return &Job{
			Name: name, Mgr: mg,
			TargetGPUs: target, MinGPUs: min, Priority: prio, Objective: obj,
		}, sub
	}

	f := &testFleet{mk: spot.NewMarket(1, 300, seed), pool: pool, curve: curve}
	j1, m1 := mkJob("deadline", 1, 40, 24, 1.5, autoconfig.Objective{
		Kind: autoconfig.ObjDeadline, DeadlineAt: simtime.Time(horizon), TargetExamples: 5e6,
	})
	j2, m2 := mkJob("dollar", 11, 40, 8, 1.0, autoconfig.Objective{
		Kind: autoconfig.ObjMinDollarPerExample,
	})
	j3, m3 := mkJob("batch", 21, 40, 8, 0.5, autoconfig.Objective{})
	f.jobs = []*Job{j1, j2, j3}
	f.sub = []*price.Meter{m1, m2, m3}
	f.opts = Options{
		Horizon: horizon,
		Probe:   10 * simtime.Minute,
		Prices:  curve,
		Preempts: []ScriptedPreempt{
			{At: simtime.Time(10 * simtime.Hour), Count: 40},
			{At: simtime.Time(16 * simtime.Hour), Count: 35},
		},
		VictimSeed: seed + 9,
	}
	return f
}

// TestFleetInvariants drives the seeded three-job chaos fleet and
// checks the structural invariants the audit records: no VM leased to
// two jobs, cascades strictly in priority order, per-job bills summing
// to the pool bill, and per-job event streams that are locally
// consistent (every preemption hits a VM that job actually held).
func TestFleetInvariants(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		f := buildTestFleet(t, seed)
		res, err := Run(f.mk, f.jobs, f.opts)
		if err != nil {
			t.Fatal(err)
		}
		a := res.Audit
		if len(a.Violations) != 0 {
			t.Fatalf("seed %d: audit violations: %v", seed, a.Violations)
		}
		if a.PoolEvents == 0 || a.Leases == 0 {
			t.Fatalf("seed %d: dead market: %+v", seed, a)
		}
		if a.ScriptedKills == 0 {
			t.Fatalf("seed %d: scripted reclaims never fired", seed)
		}

		// Per-job event streams: allocations and preemptions pair up.
		for _, jr := range res.Jobs {
			live := map[int]bool{}
			for _, ev := range jr.Events {
				switch ev.Kind {
				case spot.Alloc:
					if live[ev.VM] {
						t.Fatalf("seed %d: job %s: vm%d allocated twice without a preempt", seed, jr.Name, ev.VM)
					}
					live[ev.VM] = true
				case spot.Preempt:
					if !live[ev.VM] {
						t.Fatalf("seed %d: job %s: vm%d preempted while not held", seed, jr.Name, ev.VM)
					}
					live[ev.VM] = false
				}
			}
			if jr.Stats.MiniBatches == 0 {
				t.Fatalf("seed %d: job %s never trained", seed, jr.Name)
			}
		}

		// Shared bill: per-job meters sum to the pool meter.
		var sum float64
		for _, m := range f.sub {
			sum += m.Total()
		}
		if diff := math.Abs(sum - f.pool.Total()); diff > 1e-6*math.Max(1, f.pool.Total()) {
			t.Fatalf("seed %d: job bills %.6f do not sum to pool bill %.6f", seed, sum, f.pool.Total())
		}
		if f.pool.Total() <= 0 {
			t.Fatalf("seed %d: nothing billed", seed)
		}

		// Cascade order: within each cascade, every victim bids below
		// the beneficiary and victim bids are non-increasing... walked
		// lowest-first, so recorded bids must be non-decreasing.
		if len(a.Cascades) == 0 {
			t.Fatalf("seed %d: floors never forced a cascade", seed)
		}
		for _, c := range a.Cascades {
			prev := math.Inf(-1)
			for _, v := range c.Victims {
				if v.Bid >= c.ForBid {
					t.Fatalf("seed %d: cascade at %v for %s (bid %.3f) revoked from %s bidding %.3f",
						seed, c.At, c.For, c.ForBid, v.Job, v.Bid)
				}
				if v.Bid < prev {
					t.Fatalf("seed %d: cascade at %v revoked out of order: %.3f after %.3f", seed, c.At, v.Bid, prev)
				}
				prev = v.Bid
			}
		}
	}
}

// TestFleetReplayBitIdentical reruns the same seeded fleet and
// requires bit-identical results across every job — the determinism
// property of the whole co-simulation.
func TestFleetReplayBitIdentical(t *testing.T) {
	f1 := buildTestFleet(t, 5)
	r1, err := Run(f1.mk, f1.jobs, f1.opts)
	if err != nil {
		t.Fatal(err)
	}
	f2 := buildTestFleet(t, 5)
	r2, err := Run(f2.mk, f2.jobs, f2.opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Jobs, r2.Jobs) {
		t.Fatal("fleet replay diverged")
	}
	if !reflect.DeepEqual(r1.Audit, r2.Audit) {
		t.Fatal("fleet audit diverged across replays")
	}
}

// TestSingleJobCollapse pins the one-tenant arbiter against a manager
// replaying the market's pretraced event stream. A max-throughput job
// never releases capacity, so both paths see the same events and give
// bit-identical timelines. A min-$/example job on the spot-dollars
// config (the committed scenario's wiring) releases VMs; the arbiter
// does not deliver their later market preemptions, which the pretrace
// does and the manager ignores. Its stats and every point must still
// equal the pretraced run's, apart from per-point DollarsSpent, which
// may differ in the last ulp.
func TestSingleJobCollapse(t *testing.T) {
	type solo struct {
		name       string
		clusterGPU int
		capacity   int
		horizon    simtime.Duration
		prices     bool
		obj        autoconfig.Objective
		exact      bool
	}
	for _, c := range []solo{
		{name: "max-throughput", clusterGPU: 48, capacity: 60, horizon: 12 * simtime.Hour, exact: true},
		{name: "min-dollar", clusterGPU: 150, capacity: 120, horizon: 24 * simtime.Hour, prices: true,
			obj: autoconfig.Objective{Kind: autoconfig.ObjMinDollarPerExample}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cluster := hw.SpotCluster(hw.NC6v3, c.clusterGPU)
			job, err := core.NewJob(model.GPT2XL2B(), cluster, 8192, 54)
			if err != nil {
				t.Fatal(err)
			}
			opts := manager.DefaultOptions()
			opts.Objective = c.obj
			if c.prices {
				opts.Prices, err = price.MeanReverting(price.MROptions{
					Mean: 2.40, Vol: 0.18, Reversion: 0.12, Horizon: c.horizon,
				}, 61)
				if err != nil {
					t.Fatal(err)
				}
			}
			// Each path measures on its own identically-seeded testbed;
			// the planner is shared, and its warmth never changes a
			// decision.
			newMgr := func() *manager.Manager {
				return manager.NewWithPlanner(job.Inputs(), testbed.New(cluster, 58), job.Planner(), opts, 56)
			}
			events := spot.EventTrace(spot.NewMarket(1, c.capacity, 55), c.clusterGPU, c.horizon, 10*simtime.Minute)
			wantPts, wantStats, err := newMgr().RunTimeline(events, c.horizon)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(spot.NewMarket(1, c.capacity, 55),
				[]*Job{{Name: "solo", Mgr: newMgr(), TargetGPUs: c.clusterGPU, Objective: c.obj}},
				Options{Horizon: c.horizon, Probe: 10 * simtime.Minute, Prices: opts.Prices})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Audit.Violations) != 0 {
				t.Fatalf("violations: %v", res.Audit.Violations)
			}
			got := res.Jobs[0]
			if !reflect.DeepEqual(got.Stats, wantStats) {
				t.Fatalf("one-tenant arbiter stats diverge from the pretraced run:\narbiter   %+v\npretraced %+v", got.Stats, wantStats)
			}
			if c.exact {
				if !reflect.DeepEqual(got.Points, wantPts) {
					t.Fatal("one-tenant arbiter timeline diverges from the pretraced run")
				}
				if !reflect.DeepEqual(got.Events, events) {
					t.Fatal("one-tenant arbiter delivered a different event stream")
				}
				return
			}
			if len(got.Points) != len(wantPts) {
				t.Fatalf("one-tenant arbiter timeline has %d points, pretraced %d", len(got.Points), len(wantPts))
			}
			for i, p := range got.Points {
				w := wantPts[i]
				p.DollarsSpent, w.DollarsSpent = 0, 0
				if !reflect.DeepEqual(p, w) {
					t.Fatalf("point %d diverges:\narbiter   %+v\npretraced %+v", i, p, w)
				}
			}
			if wantStats.VMsReleased == 0 || res.Audit.Releases != wantStats.VMsReleased {
				t.Fatalf("audit counts %d releases, the manager %d", res.Audit.Releases, wantStats.VMsReleased)
			}
			// Released VMs go back to the arbiter, which never leases
			// them to this job again and does not forward their market
			// preemptions.
			for _, ev := range got.Events {
				if ev.Kind == spot.Preempt && res.Audit.everFree[ev.VM] {
					t.Fatalf("t=%v: preemption of released vm%d delivered", ev.At, ev.VM)
				}
			}
			count := func(evs []spot.Event, kind spot.EventKind) int {
				n := 0
				for _, ev := range evs {
					if ev.Kind == kind {
						n++
					}
				}
				return n
			}
			if a, w := count(got.Events, spot.Alloc), count(events, spot.Alloc); a != w {
				t.Fatalf("arbiter delivered %d allocations, pretrace %d", a, w)
			}
			if d, w := count(got.Events, spot.Preempt), count(events, spot.Preempt); d >= w {
				t.Fatalf("arbiter delivered %d preemptions, pretrace %d: released VMs' preemptions not withheld", d, w)
			}
		})
	}
}

// TestZoneOutageEmptiesZone drives a single-tenant fleet through a
// scripted zone outage and checks the correlated semantics: at the
// outage instant every held VM in the zone is preempted, the audit
// counts the outage, and the run replays bit-identically.
func TestZoneOutageEmptiesZone(t *testing.T) {
	const zones, zone = 4, 2
	at := simtime.Time(6 * simtime.Hour)
	run := func() *Result {
		job, err := core.NewJob(model.GPT2XL2B(), hw.SpotCluster(hw.NC6v3, 48), 8192, 54)
		if err != nil {
			t.Fatal(err)
		}
		mg := manager.NewWithPlanner(job.Inputs(), job.Testbed(), job.Planner(), manager.DefaultOptions(), 56)
		res, err := Run(spot.NewMarket(1, 60, 55), []*Job{{Name: "solo", Mgr: mg, TargetGPUs: 48}},
			Options{
				Horizon: 12 * simtime.Hour, Probe: 10 * simtime.Minute,
				Zones:   zones,
				Outages: []ScriptedOutage{{At: at, Zone: zone}},
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Audit.ZoneOutages != 1 {
		t.Fatalf("audit.ZoneOutages = %d, want 1", res.Audit.ZoneOutages)
	}
	if len(res.Audit.Violations) != 0 {
		t.Fatalf("violations: %v", res.Audit.Violations)
	}
	// Replay the job's event stream: every in-zone VM held when the
	// outage fires must be preempted at exactly that instant.
	held := map[int]bool{}
	preempted := map[int]bool{}
	for _, ev := range res.Jobs[0].Events {
		if ev.At < at {
			switch ev.Kind {
			case spot.Alloc:
				held[ev.VM] = true
			case spot.Preempt:
				delete(held, ev.VM)
			}
			continue
		}
		if ev.At == at && ev.Kind == spot.Preempt {
			preempted[ev.VM] = true
		}
	}
	inZone := 0
	for vm := range held {
		if vm%zones != zone {
			continue
		}
		inZone++
		if !preempted[vm] {
			t.Fatalf("vm%d (zone %d) held at outage but not preempted", vm, zone)
		}
	}
	if inZone == 0 {
		t.Fatal("outage hit an empty zone; test needs live in-zone VMs")
	}
	res2 := run()
	if !reflect.DeepEqual(res.Jobs, res2.Jobs) {
		t.Fatal("zone-outage run diverged across replays")
	}
}

// TestFleetValidation covers the config error paths.
func TestFleetValidation(t *testing.T) {
	mk := spot.NewMarket(1, 60, 1)
	if _, err := Run(mk, nil, Options{Horizon: simtime.Hour}); err == nil {
		t.Fatal("no jobs must error")
	}
	j := &Job{Name: "a", TargetGPUs: 10}
	if _, err := Run(mk, []*Job{j}, Options{}); err == nil {
		t.Fatal("zero horizon must error")
	}
	if _, err := Run(mk, []*Job{{Name: "", TargetGPUs: 10}}, Options{Horizon: simtime.Hour}); err == nil {
		t.Fatal("unnamed job must error")
	}
	if _, err := Run(mk, []*Job{j, {Name: "a", TargetGPUs: 10}}, Options{Horizon: simtime.Hour}); err == nil {
		t.Fatal("duplicate names must error")
	}
	if _, err := Run(mk, []*Job{{Name: "b"}}, Options{Horizon: simtime.Hour}); err == nil {
		t.Fatal("zero target must error")
	}
	if _, err := Run(mk, []*Job{{Name: "b", TargetGPUs: 4, MinGPUs: 8}}, Options{Horizon: simtime.Hour}); err == nil {
		t.Fatal("min above target must error")
	}
	if _, err := Run(mk, []*Job{j}, Options{Horizon: simtime.Hour, Zones: 1}); err == nil {
		t.Fatal("zones=1 must error")
	}
	if _, err := Run(mk, []*Job{j}, Options{Horizon: simtime.Hour,
		Outages: []ScriptedOutage{{At: 0, Zone: 0}}}); err == nil {
		t.Fatal("outages without zones must error")
	}
	if _, err := Run(mk, []*Job{j}, Options{Horizon: simtime.Hour, Zones: 4,
		Outages: []ScriptedOutage{{At: 0, Zone: 7}}}); err == nil {
		t.Fatal("out-of-range outage zone must error")
	}
}
