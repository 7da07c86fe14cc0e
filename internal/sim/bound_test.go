package sim

import (
	"math/rand"
	"testing"

	"repro/internal/schedule"
	"repro/internal/simtime"
)

// noFlushRule is a rule-policy pipeline that skips the allreduce, the
// one rule-mode knob the bound reads besides the costs.
var noFlushRule = schedule.Policy{Name: "Varuna-noflush", Rule: true, Opportunistic: true, NoFlush: true}

// randomCosts draws heterogeneous per-stage costs: some zero, some
// compute-bound, some dominated by transfers or the allreduce.
func randomCosts(rng *rand.Rand, p int) []StageCosts {
	draw := func(scale simtime.Duration) simtime.Duration {
		if rng.Intn(5) == 0 {
			return 0
		}
		return 1 + simtime.Duration(rng.Int63n(int64(scale)))
	}
	compute := simtime.Duration(1+rng.Intn(100)) * simtime.Millisecond
	comm := simtime.Duration(1+rng.Intn(60)) * simtime.Millisecond
	costs := make([]StageCosts, p)
	for s := range costs {
		costs[s] = StageCosts{
			Fwd: draw(compute), Bwd: draw(2 * compute), Rec: draw(compute),
			ActSend: draw(comm), GradSend: draw(comm),
			AllReduce: draw(10 * comm), Optimizer: draw(compute),
		}
	}
	return costs
}

// TestMakespanLowerBoundProperty: on seeded random deterministic
// rule-policy configs the bound never exceeds the makespan Run
// reports, on the steady-state fast path and on brute force alike.
func TestMakespanLowerBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	policies := []schedule.Policy{schedule.Varuna, schedule.VarunaStrict, noFlushRule}
	var cfgs []Config
	// The edge shapes first: one stage, one micro-batch, zero costs.
	for _, pol := range policies {
		cfgs = append(cfgs,
			Config{Depth: 1, Micros: 1, Policy: pol, Costs: randomCosts(rng, 1)},
			Config{Depth: 1, Micros: 9, Policy: pol, Costs: randomCosts(rng, 1)},
			Config{Depth: 6, Micros: 1, Policy: pol, Costs: randomCosts(rng, 6)},
			Config{Depth: 5, Micros: 12, Policy: pol, Costs: make([]StageCosts, 5)},
			Config{Depth: 18, Micros: 100, Policy: pol, Costs: benchCosts18()},
		)
	}
	for i := 0; i < 4000; i++ {
		p := 1 + rng.Intn(12)
		cfgs = append(cfgs, Config{
			Depth:  p,
			Micros: 1 + rng.Intn(48),
			Policy: policies[rng.Intn(len(policies))],
			Costs:  randomCosts(rng, p),
		})
	}
	positive := 0
	for i, cfg := range cfgs {
		lb := MakespanLowerBound(cfg)
		if lb > 0 {
			positive++
		}
		for _, brute := range []bool{false, true} {
			run := cfg
			run.DisableSteadyState = brute
			res := mustRun(t, run)
			if lb > res.Makespan {
				t.Fatalf("config %d (P=%d Nm=%d %s, brute %v): bound %v above makespan %v\ncosts %+v",
					i, cfg.Depth, cfg.Micros, cfg.Policy.Name, brute, lb, res.Makespan, cfg.Costs)
			}
			// One stage never waits on a neighbour or recomputes, so
			// the bound is the makespan itself.
			if cfg.Depth == 1 && lb != res.Makespan {
				t.Fatalf("config %d: P=1 bound %v, makespan %v", i, lb, res.Makespan)
			}
		}
	}
	if positive < len(cfgs)*9/10 {
		t.Fatalf("only %d of %d configs got a positive bound", positive, len(cfgs))
	}
}

// TestMakespanLowerBoundRefuses: configs whose task times are not the
// means, or whose receives stall the stage, or whose order is fixed,
// get no bound.
func TestMakespanLowerBoundRefuses(t *testing.T) {
	base := Config{Depth: 4, Micros: 16, Policy: schedule.Varuna, Costs: benchCosts18()[:4]}
	if MakespanLowerBound(base) <= 0 {
		t.Fatal("the deterministic base config must get a bound")
	}
	gpipe, err := schedule.GPipe(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	negative := append([]StageCosts(nil), base.Costs...)
	negative[2].GradSend = -1
	for name, mod := range map[string]func(*Config){
		"network jitter": func(c *Config) { c.JitterCV, c.Rand = 0.2, simtime.NewRand(1) },
		"compute jitter": func(c *Config) { c.ComputeJitterCV, c.Rand = 0.02, simtime.NewRand(1) },
		"speed factor":   func(c *Config) { c.SpeedFactor = []float64{1, 1.3, 1, 1} },
		"sync comm":      func(c *Config) { c.Policy = schedule.Policy{Name: "rule-sync", Rule: true, SyncComm: true} },
		"strict order":   func(c *Config) { c.Policy, c.Orders = schedule.GPipeP, gpipe.Orders },
		"1F1B":           func(c *Config) { c.Policy = schedule.Megatron1F1B },
		"negative cost":  func(c *Config) { c.Costs = negative },
		"cost count":     func(c *Config) { c.Costs = c.Costs[:3] },
		"no micros":      func(c *Config) { c.Micros = 0 },
	} {
		cfg := base
		mod(&cfg)
		if lb := MakespanLowerBound(cfg); lb != 0 {
			t.Errorf("%s: bound %v, want 0", name, lb)
		}
	}
}
