package autoconfig

import (
	"testing"

	"repro/internal/calibrate"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/testbed"
)

func inputsFor(t *testing.T, spec *model.Spec, k int) Inputs {
	t.Helper()
	cluster := hw.SpotCluster(hw.NC6v3, 300)
	tb := testbed.New(cluster, 21)
	params, err := calibrate.Run(spec, tb, calibrate.Options{GPUsPerNode: cluster.VM.GPUs})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := model.FindCutPoints(spec, k)
	if err != nil {
		t.Fatal(err)
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

func TestGradAccum(t *testing.T) {
	if GradAccum(8192, 4, 16) != 128 {
		t.Fatal("8192/(4*16) = 128")
	}
	if GradAccum(8192, 4, 100) != 21 {
		t.Fatal("ceil(8192/400) = 21")
	}
	if GradAccum(1, 32, 32) != 1 {
		t.Fatal("Nm floor is 1")
	}
}

func TestGradAccumPreservesBatch(t *testing.T) {
	// §4.2: m·Nm·D stays within one micro-batch row of M_total.
	for _, d := range []int{1, 2, 3, 7, 16, 100} {
		for _, m := range []int{1, 2, 4, 8} {
			nm := GradAccum(8192, m, d)
			eff := m * nm * d
			if eff < 8192 || eff >= 8192+m*d {
				t.Fatalf("d=%d m=%d: effective batch %d not in [8192, 8192+%d)", d, m, eff, m*d)
			}
		}
	}
}

func TestBestConfig25B(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	best, err := Best(in, 100)
	if err != nil {
		t.Fatal(err)
	}
	if best.P*best.D > 100 {
		t.Fatalf("config %v uses more GPUs than available", best)
	}
	// Table 3 at G=100: moderate depths (6–18) win; extremes lose.
	if best.P < 4 || best.P > 20 {
		t.Fatalf("best depth %d outside the plausible band (Table 3 shows 6–18)", best.P)
	}
	if best.TotalExPerSec() <= 0 || best.ExPerSecPerGPU() <= 0 {
		t.Fatal("throughput must be positive")
	}
	if best.String() == "" {
		t.Fatal("String empty")
	}
}

func TestPipelineDepthSensitivity(t *testing.T) {
	// Table 3 / Observation 2: neither extreme wins. At G=36 the
	// mid-depth 6x6 outperforms the deep 18x2; at G=100 the deep 18x5
	// loses clearly to 6x16 and 9x11, which sit within a few percent
	// of each other.
	in := inputsFor(t, model.GPT2XL2B(), 53)
	at := func(g, p int) Choice {
		c, err := NewPlanner(in).Evaluate(p, g/p)
		if err != nil {
			t.Fatalf("G=%d P=%d: %v", g, p, err)
		}
		return c
	}
	if s, d := at(36, 6), at(36, 18); s.TotalExPerSec() <= d.TotalExPerSec() {
		t.Fatalf("G=36: 6x6 (%.1f) must beat 18x2 (%.1f)", s.TotalExPerSec(), d.TotalExPerSec())
	}
	six, nine, deep := at(100, 6), at(100, 9), at(100, 18)
	if deep.TotalExPerSec() >= six.TotalExPerSec() || deep.TotalExPerSec() >= nine.TotalExPerSec() {
		t.Fatalf("G=100: 18x5 (%.1f) must lose to 6x16 (%.1f) and 9x11 (%.1f)",
			deep.TotalExPerSec(), six.TotalExPerSec(), nine.TotalExPerSec())
	}
	gap := six.TotalExPerSec() / nine.TotalExPerSec()
	if gap < 0.85 || gap > 1.18 {
		t.Fatalf("G=100: 6x16 and 9x11 should be within ~15%% (paper: 155 vs 164), got ratio %.2f", gap)
	}
}

func TestSweepShapes(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	sweep, err := Sweep(in, 36)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) == 0 {
		t.Fatal("no feasible configs")
	}
	seen := map[int]bool{}
	for _, c := range sweep {
		if seen[c.P] {
			t.Fatalf("depth %d evaluated twice", c.P)
		}
		seen[c.P] = true
		if c.D != 36/c.P {
			t.Fatalf("P=%d: D=%d, want %d", c.P, c.D, 36/c.P)
		}
		if c.Examples < in.MTotal {
			t.Fatalf("P=%d: effective batch %d below M_total", c.P, c.Examples)
		}
	}
	// The 2.5B model cannot run at P=1 on 16 GB (needs 40 GB of state).
	if seen[1] {
		t.Fatal("P=1 must be memory-infeasible for 2.5B on 16GB")
	}
}

func TestMemoryForcesDeepPipelines8B(t *testing.T) {
	in := inputsFor(t, model.GPT2Megatron8B(), 71)
	sweep, err := Sweep(in, 128)
	if err != nil {
		t.Fatal(err)
	}
	minP := sweep[0].P
	for _, c := range sweep {
		if c.P < minP {
			minP = c.P
		}
	}
	// 8.3B at 16·N bytes needs ≥ 133GB of state → at least ~9 stages.
	if minP < 9 {
		t.Fatalf("min feasible depth %d implausibly shallow for 8.3B", minP)
	}
}

func TestErrors(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	if _, err := Sweep(in, 0); err == nil {
		t.Fatal("G=0 must fail")
	}
	if _, err := Best(in, 2); err == nil {
		t.Fatal("2 GPUs cannot fit 2.5B")
	}
	if _, err := NewPlanner(in).Evaluate(0, 1); err == nil {
		t.Fatal("P=0 must fail")
	}
}

func TestMorphKeepsBatchAcrossScales(t *testing.T) {
	// The correctness-preserving core: for any fleet size the chosen
	// config processes the same (or minimally padded) global batch.
	in := inputsFor(t, model.GPT2XL2B(), 53)
	for _, g := range []int{24, 36, 72, 150, 300} {
		best, err := Best(in, g)
		if err != nil {
			t.Fatalf("G=%d: %v", g, err)
		}
		if best.Examples < in.MTotal || best.Examples >= in.MTotal+best.M*best.D {
			t.Fatalf("G=%d: effective batch %d strays from M_total %d", g, best.Examples, in.MTotal)
		}
	}
}

func TestUnusedGPUsBounded(t *testing.T) {
	// §4.4: "few GPUs may be left unused" — but never a full pipeline's
	// worth.
	in := inputsFor(t, model.GPT2XL2B(), 53)
	best, err := Best(in, 100)
	if err != nil {
		t.Fatal(err)
	}
	unused := 100 - best.GPUsUsed
	if unused >= best.P {
		t.Fatalf("%d GPUs idle with P=%d — another replica would fit", unused, best.P)
	}
}
