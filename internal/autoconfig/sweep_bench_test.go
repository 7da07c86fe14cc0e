package autoconfig

import (
	"testing"

	"repro/internal/calibrate"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/testbed"
)

func benchInputs(b *testing.B) Inputs {
	b.Helper()
	return benchInputsFor(b, model.GPT2Megatron8B(), 71)
}

func benchInputsFor(b *testing.B, spec *model.Spec, k int) Inputs {
	b.Helper()
	cluster := hw.SpotCluster(hw.NC6v3, 300)
	tb := testbed.New(cluster, 21)
	params, err := calibrate.Run(spec, tb, calibrate.Options{GPUsPerNode: cluster.VM.GPUs})
	if err != nil {
		b.Fatal(err)
	}
	cuts, err := model.FindCutPoints(spec, k)
	if err != nil {
		b.Fatal(err)
	}
	return Inputs{
		Spec:        spec,
		Cuts:        cuts,
		Params:      params,
		GPUMem:      16 << 30,
		MTotal:      8192,
		GPUsPerNode: 1,
	}
}

// BenchmarkSweepParallel measures the full morph decision for a
// 128-GPU 8.3B job: every micro-batch size of every depth simulated on
// min(GOMAXPROCS, n) workers. Run it with -cpu 1 for the serial sweep.
// The seed (serial, traced simulator) implementation measured
// 1.033 s/op and 5070504 allocs/op on this config.
func BenchmarkSweepParallel(b *testing.B) {
	in := benchInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(in, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerBestCold measures the same decision through a fresh
// Planner's Best: the branch-and-bound simulates, one depth at a time,
// only the depths the makespan bound cannot rule out, to be read
// against BenchmarkSweepParallel.
func BenchmarkPlannerBestCold(b *testing.B) {
	in := benchInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlanner(in).Best(128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBestForMinDollarCold measures one min-$/example decision for
// a 40-GPU 2.5B job at the mean price on a fresh Planner: the bounded
// candidate set of the four shrink levels, simulated serially where
// the bounds cannot rule depths out.
func BenchmarkBestForMinDollarCold(b *testing.B) {
	in := benchInputsFor(b, model.GPT2XL2B(), 53)
	obj, ec := Objective{Kind: ObjMinDollarPerExample}, Econ{PerGPUHour: 2.4, MeanPerGPUHour: 2.4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlanner(in).BestFor(40, obj, ec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBestForMinDollarWarm repeats that decision on one Planner
// that has made it before, as a fleet's long-lived planner does: every
// cost key the decision simulates is cached.
func BenchmarkBestForMinDollarWarm(b *testing.B) {
	in := benchInputsFor(b, model.GPT2XL2B(), 53)
	obj, ec := Objective{Kind: ObjMinDollarPerExample}, Econ{PerGPUHour: 2.4, MeanPerGPUHour: 2.4}
	pl := NewPlanner(in)
	if _, err := pl.BestFor(40, obj, ec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.BestFor(40, obj, ec); err != nil {
			b.Fatal(err)
		}
	}
}
