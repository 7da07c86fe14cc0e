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
	spec := model.GPT2Megatron8B()
	cluster := hw.SpotCluster(hw.NC6v3, 300)
	tb := testbed.New(cluster, 21)
	params, err := calibrate.Run(spec, tb, calibrate.Options{GPUsPerNode: cluster.VM.GPUs})
	if err != nil {
		b.Fatal(err)
	}
	cuts, err := model.FindCutPoints(spec, 71)
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
// 128-GPU 8.3B job on the GOMAXPROCS worker pool. The seed (serial,
// traced simulator) implementation measured 1.033 s/op and 5070504
// allocs/op on this config.
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
// Planner's Best: the serial branch-and-bound simulates only the depths
// the makespan bound cannot rule out, to be read against
// BenchmarkSweepParallel.
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

// BenchmarkSweepSerial is the one-worker reference, isolating the
// multicore speedup from the single-simulation fast path.
func BenchmarkSweepSerial(b *testing.B) {
	in := benchInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweepWorkers(in, 128, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
