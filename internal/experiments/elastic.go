package experiments

import (
	"fmt"
	"strings"

	"repro/internal/autoconfig"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/simtime"
	"repro/internal/spot"
	"repro/internal/testbed"
)

// Fig3Availability reproduces Figure 3: aggregate GPU availability when
// low-priority 1-GPU and 4-GPU VMs are requested/released over 16 hours.
func Fig3Availability(x *Ctx) (*Table, error) {
	horizon, probe := 16*simtime.Hour, 5*simtime.Minute
	one := spot.AvailabilityTrace(spot.NewMarket(1, 200, 42), 300, horizon, probe)
	four := spot.AvailabilityTrace(spot.NewMarket(4, 200, 42), 300, horizon, probe)

	t := &Table{
		Title:  "Figure 3: aggregate spot GPU availability over 16 hours",
		Header: []string{"VM size", "Mean GPUs", "Min", "Max"},
	}
	stats := func(tr []spot.Trace) (mean float64, lo, hi int) {
		lo, hi = tr[0].GPUs, tr[0].GPUs
		var sum float64
		for _, s := range tr {
			sum += float64(s.GPUs)
			if s.GPUs < lo {
				lo = s.GPUs
			}
			if s.GPUs > hi {
				hi = s.GPUs
			}
		}
		return sum / float64(len(tr)), lo, hi
	}
	m1, lo1, hi1 := stats(one)
	m4, lo4, hi4 := stats(four)
	t.Add("1-GPU VMs", f1(m1), fmt.Sprint(lo1), fmt.Sprint(hi1))
	t.Add("4-GPU VMs", f1(m4), fmt.Sprint(lo4), fmt.Sprint(hi4))
	t.Figure = sparkline("1-GPU", one, 300) + sparkline("4-GPU", four, 300)
	t.Notes = append(t.Notes, "Observation 4: 1-GPU VMs deliver materially more aggregate capacity")
	return t, nil
}

// sparkline renders an availability trace as a coarse text chart.
func sparkline(label string, tr []spot.Trace, maxGPUs int) string {
	const cols = 96
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s ", label)
	for c := 0; c < cols; c++ {
		idx := c * len(tr) / cols
		frac := float64(tr[idx].GPUs) / float64(maxGPUs)
		g := int(frac * float64(len(glyphs)-1))
		if g >= len(glyphs) {
			g = len(glyphs) - 1
		}
		if g < 0 {
			g = 0
		}
		b.WriteRune(glyphs[g])
	}
	b.WriteString("\n")
	return b.String()
}

// Fig8Morphing reproduces Figure 8: the 2.5B model training on a
// volatile 1-GPU spot fleet for 60 hours, with the manager morphing
// configurations as VMs come and go. The run is the committed
// elastic.yaml scenario.
func Fig8Morphing(x *Ctx) (*Table, error) {
	res, err := x.runScenario("elastic.yaml", nil)
	if err != nil {
		return nil, err
	}
	points, stats := res.Points, res.Stats
	t := &Table{
		Title:  "Figure 8: 60-hour dynamic timeline, GPT-2 2.5B on spot 1-GPU VMs",
		Header: []string{"Time", "GPUs", "Config", "Total ex/s", "Ex/s/GPU", "Event"},
	}
	var exMin, exMax, perMin, perMax float64
	shown := 0
	for _, p := range points {
		if p.ExPerSec <= 0 || p.Config.GPUsUsed == 0 {
			continue
		}
		per := p.ExPerSec / float64(p.Config.GPUsUsed)
		if exMin == 0 || p.ExPerSec < exMin {
			exMin = p.ExPerSec
		}
		if p.ExPerSec > exMax {
			exMax = p.ExPerSec
		}
		if perMin == 0 || per < perMin {
			perMin = per
		}
		if per > perMax {
			perMax = per
		}
		if p.Event == "morph" || p.Event == "p" || shown < 4 {
			t.Add(fmt.Sprintf("%.1fh", p.At.Hours()), fmt.Sprint(p.GPUs),
				fmt.Sprintf("%dx%d", p.Config.P, p.Config.D),
				f1(p.ExPerSec), f2(per), p.Event)
			shown++
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("total throughput swings %.1fx while per-GPU throughput varies %.0f%% (paper: 5x vs 15%%)",
			exMax/exMin, 100*(perMax/perMin-1)),
		fmt.Sprintf("stats: %d mini-batches, %d morphs, %d replacements, %d preemptions, %d checkpoints, %d lost mini-batches, downtime %v",
			stats.MiniBatches, stats.Morphs, stats.Replacements, stats.Preemptions, stats.Checkpoints, stats.LostMiniBatches, stats.Downtime))
	return t, nil
}

// OneVsFourGPUVMs reproduces the §7.2 comparison: Varuna trains at
// nearly the same per-GPU rate on 1-GPU VMs (all traffic over
// ethernet) as on 4-GPU VMs, enabling Observation 4's capacity win.
func OneVsFourGPUVMs(x *Ctx) (*Table, error) {
	spec := model.GPT2XL2B()
	t := &Table{
		Title:  "§7.2: 1-GPU vs 4-GPU VMs, GPT-2 2.5B on 72 GPUs (9x8)",
		Header: []string{"VM size", "Ex/s/GPU"},
	}
	var vals []float64
	for _, vm := range []hw.VMType{hw.NC6v3, hw.NC24v3} {
		cluster := hw.SpotCluster(vm, 72)
		job, err := x.sharedJob(spec, cluster, 8192, 57)
		if err != nil {
			return nil, err
		}
		_, perGPU, err := varunaAt(job, 9, 8)
		if err != nil {
			return nil, err
		}
		vals = append(vals, perGPU)
		t.Add(vm.Name, f3(perGPU))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("gap: %.1f%% (paper: ~2%%, 1.77 vs 1.81 ex/s/GPU)", 100*(vals[1]/vals[0]-1)))
	return t, nil
}

// Table3PipelineDepth reproduces Table 3: sensitivity of the 2.5B
// model's throughput to pipeline depth at 36 and 100 GPUs.
func Table3PipelineDepth(x *Ctx) (*Table, error) {
	spec := model.GPT2XL2B()
	t := &Table{
		Title:  "Table 3: sensitivity to pipeline depth (GPT-2 2.5B)",
		Header: []string{"Num GPUs", "Config (PxD)", "Total ex/s", "Ex/s/GPU"},
	}
	for _, row := range []struct{ g, p, d int }{
		{36, 6, 6}, {36, 9, 4}, {36, 18, 2},
		{100, 6, 16}, {100, 9, 11}, {100, 18, 5},
	} {
		cluster := hw.SpotCluster(hw.NC6v3, row.g)
		job, err := x.sharedJob(spec, cluster, 8192, 58)
		if err != nil {
			return nil, err
		}
		c, err := job.Configure(row.p, row.d)
		if err != nil {
			return nil, err
		}
		ms, err := job.Measure(c)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprint(row.g), fmt.Sprintf("%dx%d", row.p, row.d),
			f2(ms.ExPerSec()), f2(ms.ExPerSec()/float64(c.GPUsUsed)))
	}
	t.Notes = append(t.Notes,
		"paper: 36 GPUs → 66.6/65.9/50.0 total ex/s; 100 GPUs → 155.5/164.3/99.0")
	return t, nil
}

// AblationStragglers measures the fail-stutter handling of §4.6: a
// fleet with one 35%-slow replica, with and without manager exclusion.
func AblationStragglers(x *Ctx) (*Table, error) {
	spec := model.GPT2XL2B()
	cluster := hw.SpotCluster(hw.NC6v3, 80)
	job, err := x.sharedJob(spec, cluster, 8192, 59)
	if err != nil {
		return nil, err
	}
	c, err := job.Configure(9, 8)
	if err != nil {
		return nil, err
	}
	tb := job.Testbed()
	healthy, err := tb.MeasureMiniBatch(jobCfg(job, c, nil))
	if err != nil {
		return nil, err
	}
	slowed, err := tb.MeasureMiniBatch(jobCfg(job, c, map[int]float64{3: 1.35}))
	if err != nil {
		return nil, err
	}
	// Exclusion: the manager drops the slow VM's pipeline; with 80
	// GPUs and 9x8=72 used there is a spare replica slot, so the job
	// keeps 9x8 on healthy VMs.
	excluded, err := tb.MeasureMiniBatch(jobCfg(job, c, nil))
	if err != nil {
		return nil, err
	}
	hb := map[int]float64{}
	for i := 0; i < 8; i++ {
		hb[i] = 1.0
	}
	hb[3] = 1.35
	flagged := manager.DetectStragglers(hb, 1.2)
	t := &Table{
		Title:  "Ablation: fail-stutter (straggler) handling, 2.5B at 9x8",
		Header: []string{"Scenario", "Mini-batch time", "Ex/s/GPU"},
	}
	per := func(ms simtime.Duration, ex int) string {
		return f2(float64(ex) / ms.Seconds() / float64(c.GPUsUsed))
	}
	t.Add("healthy fleet", healthy.MiniBatchTime.String(), per(healthy.MiniBatchTime, healthy.Examples))
	t.Add("one 35%-slow replica, kept", slowed.MiniBatchTime.String(), per(slowed.MiniBatchTime, slowed.Examples))
	t.Add("slow VM excluded by manager", excluded.MiniBatchTime.String(), per(excluded.MiniBatchTime, excluded.Examples))
	t.Notes = append(t.Notes, fmt.Sprintf("detector flagged replicas %v from heartbeat times", flagged))
	return t, nil
}

func jobCfg(job *core.Job, c autoconfig.Choice, slow map[int]float64) testbed.JobConfig {
	return testbed.JobConfig{
		Spec:      job.Spec,
		Stages:    c.Stages,
		M:         c.M,
		Nm:        c.Nm,
		D:         c.D,
		ExtraSlow: slow,
	}
}
