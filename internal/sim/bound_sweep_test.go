package sim_test

import (
	"encoding/json"
	"testing"

	"repro/internal/autoconfig"
	"repro/internal/calibrate"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// TestMakespanLowerBoundOnSweepCandidates checks the bound on real
// calibrated costs: every (P, m) candidate the 8.3B sweeps simulate at
// G = 64…176 gets a positive bound that is never above its exact
// estimate (the full-Nm makespan Run reports).
func TestMakespanLowerBoundOnSweepCandidates(t *testing.T) {
	spec := model.GPT2Megatron8B()
	cluster := hw.SpotCluster(hw.NC6v3, 300)
	params, err := calibrate.Run(spec, testbed.New(cluster, 21), calibrate.Options{GPUsPerNode: cluster.VM.GPUs})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := model.FindCutPoints(spec, 71)
	if err != nil {
		t.Fatal(err)
	}
	pl := autoconfig.NewPlanner(autoconfig.Inputs{
		Spec: spec, Cuts: cuts, Params: params,
		GPUMem: 16 << 30, MTotal: 8192, GPUsPerNode: 1,
	})
	for g := 64; g <= 176; g += 16 {
		if _, err := pl.Sweep(g); err != nil {
			t.Fatal(err)
		}
	}
	data, err := pl.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	var st autoconfig.PlannerState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Costs) < 100 {
		t.Fatalf("only %d candidates cached", len(st.Costs))
	}
	for _, c := range st.Costs {
		lb := sim.MakespanLowerBound(sim.Config{Depth: c.P, Micros: c.Nm, Policy: schedule.Varuna, Costs: c.Costs})
		if lb <= 0 || lb > c.Est {
			t.Fatalf("P=%d m=%d D=%d Nm=%d: bound %v, estimate %v", c.P, c.M, c.D, c.Nm, lb, c.Est)
		}
	}
}
