package experiments

import (
	"fmt"

	"repro/internal/gantt"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// Fig4Schedules reproduces Figure 4: Varuna's micro-batch schedule
// contrasted against GPipe for a 4-stage pipeline with 5 micro-batches
// (B = 2F, R = F), including the one-time-unit makespan advantage.
func Fig4Schedules(x *Ctx) (*Table, error) {
	costs := sim.UnitCosts(4, simtime.Millisecond)
	varunaOrders, err := sim.VarunaOrders(4, 5, costs)
	if err != nil {
		return nil, err
	}
	gpipe, err := schedule.GPipe(4, 5)
	if err != nil {
		return nil, err
	}
	varunaRes, err := sim.Run(sim.Config{Depth: 4, Micros: 5, Policy: schedule.Varuna, Costs: costs})
	if err != nil {
		return nil, err
	}
	gpipeRes, err := sim.Run(sim.Config{Depth: 4, Micros: 5, Policy: schedule.GPipeP, Orders: gpipe.Orders, Costs: costs})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 4: Varuna vs GPipe schedule (4 stages, 5 micro-batches, B=2F)",
		Header: []string{"Schedule", "Makespan (units of F)", "Recomputes"},
	}
	unit := float64(simtime.Millisecond)
	vs := &schedule.Schedule{Depth: 4, Micros: 5, Orders: varunaOrders.Orders}
	t.Add("Varuna", f1(float64(varunaRes.PipelineSpan)/unit), fmt.Sprint(vs.RecomputeCount()))
	t.Add("GPipe", f1(float64(gpipeRes.PipelineSpan)/unit), fmt.Sprint(gpipe.RecomputeCount()))
	t.Figure = "(a) Varuna schedule\n" + gantt.OrderStrips(varunaOrders) +
		"\n(b) GPipe schedule\n" + gantt.OrderStrips(gpipe)
	t.Notes = append(t.Notes,
		"paper: Varuna completes one F-unit earlier, skips all last-stage recomputes, and intersperses forwards for jitter slack")
	return t, nil
}

// Fig7Gantt reproduces Figure 7: the task timeline of one Varuna
// mini-batch on the 20B model in its 49x6 configuration (one replica
// shown).
func Fig7Gantt(x *Ctx) (*Table, error) {
	spec := model.GPT2Twenty20B()
	cluster := hw.SpotCluster(hw.NC6v3, 294)
	job, err := x.sharedJob(spec, cluster, 8192, 44)
	if err != nil {
		return nil, err
	}
	c, err := job.Configure(49, 6)
	if err != nil {
		return nil, err
	}
	// Render a shortened mini-batch (every micro-batch beyond ~3 per
	// stage looks identical in steady state) for a readable chart.
	short := c
	short.Nm = 12
	cfg := jobCfg(job, short, nil)
	cfg.CollectTrace = true
	ms, err := job.Testbed().MeasureMiniBatch(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 7: one Varuna mini-batch on GPT-2 20B, 49x6 (replica 0, first 12 micro-batches)",
		Header: []string{"Metric", "Value"},
	}
	t.Add("pipeline bubble fraction", f3(ms.Bubble))
	t.Add("mini-batch time (12 micro-batches)", ms.MiniBatchTime.String())
	t.Figure = gantt.Render(ms.Trace, 49, 110)
	t.Notes = append(t.Notes, "paper shows forwards (red), backwards (green), recompute (orange) and the final stage-wise 6-way allreduce")
	return t, nil
}

// Table5GPipe reproduces Table 5: Varuna vs GPipe on BERT-72 inside a
// single 4-GPU node at micro-batch 16 and 32, plus the simulated 8.3B
// comparison at 1x / 1.5x / 2x slower networks.
func Table5GPipe(x *Ctx) (*Table, error) {
	t := &Table{
		Title:  "Table 5: Varuna vs GPipe (ex/s/GPU), mini-batch 8192",
		Header: []string{"Workload", "Varuna", "GPipe", "Varuna advantage"},
	}

	bert := model.BERT72()
	cluster := hw.SpotCluster(hw.NC24v3, 4)
	job, err := x.sharedJob(bert, cluster, 8192, 48)
	if err != nil {
		return nil, err
	}
	for _, m := range []int{16, 32} {
		c, err := job.Configure(4, 1)
		if err != nil {
			return nil, err
		}
		c.M = m
		c.Nm = 8192 / m
		c.Examples = 8192
		vms, err := job.Measure(c)
		if err != nil {
			return nil, err
		}
		gms, err := job.MeasureWithPolicy(c, schedule.GPipeP)
		if err != nil {
			return nil, err
		}
		v := vms.ExPerSec() / 4
		g := gms.ExPerSec() / 4
		t.Add(fmt.Sprintf("BERT-72 (m=%d)", m), f1(v), f1(g), fmt.Sprintf("%+.0f%%", 100*(v/g-1)))
	}

	// Simulated 8.3B at 19x3 with the calibrated simulator, slowing
	// the network 1x / 1.5x / 2x (§7.1.2 used exactly this method).
	spec := model.GPT2Megatron8B()
	lp := hw.SpotCluster(hw.NC6v3, 57)
	job8, err := x.sharedJob(spec, lp, 8192, 48)
	if err != nil {
		return nil, err
	}
	c8, err := job8.Configure(19, 3)
	if err != nil {
		return nil, err
	}
	costs, err := job8.Calibration().StageCosts(spec, c8.Stages, c8.M, c8.D, job8.Testbed().InterBoundaryFlags(19))
	if err != nil {
		return nil, err
	}
	for _, slow := range []float64{1, 1.5, 2} {
		sc := make([]sim.StageCosts, len(costs))
		copy(sc, costs)
		for i := range sc {
			sc[i].ActSend = simtime.Duration(float64(sc[i].ActSend) * slow)
			sc[i].GradSend = simtime.Duration(float64(sc[i].GradSend) * slow)
			sc[i].AllReduce = simtime.Duration(float64(sc[i].AllReduce) * slow)
		}
		jcv := job8.Calibration().Net.JitterCV
		vres, err := sim.Run(sim.Config{Depth: 19, Micros: c8.Nm, Policy: schedule.Varuna,
			Costs: sc, JitterCV: jcv, Rand: simtime.NewRand(7)})
		if err != nil {
			return nil, err
		}
		stash := spec.BlockActivationBytes() * int64(c8.M)
		chunk := sim.GPipeChunk(4<<30, stash, 19)
		gres, err := sim.RunChunked(sim.Config{Depth: 19, Micros: c8.Nm, Policy: schedule.GPipeP,
			Costs: sc, JitterCV: jcv, Rand: simtime.NewRand(7)}, chunk, schedule.GPipe)
		if err != nil {
			return nil, err
		}
		gpus := float64(19 * 3)
		v := float64(c8.Examples) / vres.Makespan.Seconds() / gpus
		g := float64(c8.Examples) / gres.Makespan.Seconds() / gpus
		t.Add(fmt.Sprintf("Simulated 8.3B (%.1fx slower net)", slow), f2(v), f2(g),
			fmt.Sprintf("%+.0f%%", 100*(v/g-1)))
	}
	t.Notes = append(t.Notes,
		"paper: BERT-72 +70%/+15% (m=16/32); simulated 8.3B +9%/+23%/+38% as the network slows 1x/1.5x/2x")
	return t, nil
}

// Table6Pipelines reproduces Table 6: Varuna vs DeepSpeed vs
// Megatron-1F1B vs PipeDream on 1-GPU commodity VMs, mini-batch 2400.
func Table6Pipelines(x *Ctx) (*Table, error) {
	t := &Table{
		Title:  "Table 6: pipeline systems on 1-GPU VMs (ex/s/GPU), mini-batch 2400",
		Header: []string{"Model (PxD)", "Varuna", "DeepSpeed", "Megatron-1F1B", "PipeDream"},
	}
	for _, w := range []struct {
		spec *model.Spec
		p, d int
	}{
		{model.GPT2Megatron8B(), 18, 4},
		{model.GPT2XL2B(), 9, 8},
	} {
		cluster := hw.SpotCluster(hw.NC6v3, w.p*w.d)
		job, err := x.sharedJob(w.spec, cluster, 2400, 49)
		if err != nil {
			return nil, err
		}
		c, err := job.Configure(w.p, w.d)
		if err != nil {
			return nil, err
		}
		gpus := float64(c.GPUsUsed)
		run := func(policy schedule.Policy) string {
			ms, err := job.MeasureWithPolicy(c, policy)
			if err != nil {
				return "err"
			}
			return f2(ms.ExPerSec() / gpus)
		}
		// PipeDream keeps P weight copies: check memory feasibility.
		pipedream := "OOM"
		if pipeDreamFits(w.spec, c.Stages, c.M, c.Nm, w.p) {
			ms, err := job.MeasureWithPolicy(c, schedule.PipeDreamP)
			if err == nil {
				pipedream = f2(ms.ExPerSec() / gpus)
			}
		}
		t.Add(fmt.Sprintf("%s (%dx%d)", w.spec.Name, w.p, w.d),
			run(schedule.Varuna), run(schedule.DeepSpeedP), run(schedule.Megatron1F1B), pipedream)
	}
	t.Notes = append(t.Notes,
		"paper: Varuna 0.59/1.5, DeepSpeed 0.47/1.24, Megatron-1F1B 0.52/1.31, PipeDream OOM on both")
	return t, nil
}

// pipeDreamFits checks PipeDream's memory demand: P weight copies and
// — because it has no mini-batch flush to recompute across — full
// activation storage for every in-flight micro-batch.
func pipeDreamFits(spec *model.Spec, stages []model.Stage, m, nm, p int) bool {
	for _, st := range stages {
		mm := model.MemoryModel{Spec: spec, Stage: st, WeightCopies: p, StoreAllActivations: true}
		if !mm.Fits(m, nm, p, int64(16)<<30) {
			return false
		}
	}
	return true
}
