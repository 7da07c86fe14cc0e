//go:build amd64

package engine

import (
	"math"
	"testing"
)

// The loss-bit pins: exact float64 bit patterns of loss sequences, so
// any change to the kernels' summation order, the layers' buffer reuse,
// the stage slots or the Sync/TwoBW schedules fails here, not as a
// drifted figure.
//
// The pinned bits are results of amd64 hosts with AVX and FMA. Go
// rounds a*b + c there as two operations; on arm64, ppc64le, riscv64
// and s390x the compiler may fuse them into one rounding, which gives
// other (equally valid) bits. And on amd64, math.Exp, and math.Tanh
// through it, takes a VFMADD path when the CPU has AVX and FMA
// ($GOROOT/src/math/exp_amd64.go, useFMA), so an amd64 host without
// them computes other bits too. The nn matmuls add no condition: their
// AVX2 strips never fuse, and give the Go tiles' bits.

func checkBits(t *testing.T, what string, got []float64, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d losses, want %d", what, len(got), len(want))
	}
	for i, g := range got {
		if math.Float64bits(g) != want[i] {
			t.Errorf("%s: loss[%d] = %.17g (%#016x), pinned %.17g (%#016x)",
				what, i, g, math.Float64bits(g), math.Float64frombits(want[i]), want[i])
		}
	}
}

// TestLossPinsTrain pins the benchmark's training run (Figure 9's big
// batch: P=2 D=2 m=8 B=256, DataSeed 31) for 10 steps, and Eval(2)
// after it: each 3072-row held-out batch streams through the training
// buffers 96 rows at a time, and must give the bits that one pass over
// the whole batch gave.
func TestLossPinsTrain(t *testing.T) {
	e := mustEngine(t, Config{GPT: charGPT(), P: 2, D: 2, MicroBatch: 8, BatchSize: 256, LR: 8e-3, DataSeed: 31})
	checkBits(t, "P=2 D=2 m=8", e.Losses(10), []uint64{
		0x4013a6be6efc4151, // 4.9128358212913819
		0x4011a41897c9e9c4, // 4.4102500645626073
		0x400e361d2612f816, // 3.7764227842844873
		0x400a20862f0b1f98, // 3.2658809352178189
		0x400624fab89f853f, // 2.7680563377076903
		0x40048448ab9c9b80, // 2.5645917327087204
		0x4002fba28a87e75e, // 2.3728686163639585
		0x40012e0243397d66, // 2.1474652530593401
		0x3ffe6db80ade9152, // 1.9017868446909074
		0x3ffe7b10154d8648, // 1.9050446350232892
	})
	checkBits(t, "Eval(2)", []float64{e.Eval(2)}, []uint64{
		0x3ffbfb93f6ea23ce, // 1.7489204068281086
	})
}

// TestLossPinsTwoBW pins Figure 10's 2BW run (P=4 D=1 m=4 B=64): its
// first delayed update lands at step 3.
func TestLossPinsTwoBW(t *testing.T) {
	e := mustEngine(t, Config{GPT: charGPT(), P: 4, D: 1, MicroBatch: 4, BatchSize: 64, LR: 3e-2, DataSeed: 33, Mode: TwoBW})
	checkBits(t, "TwoBW P=4 m=4", e.Losses(6), []uint64{
		0x4013149fb9feb6f4, // 4.7701405584063998
		0x4012eb7b90e02418, // 4.7299635540776066
		0x401bbf4d66374724, // 6.9368186923254918
		0x401c814b5a84fadf, // 7.126264013639882
		0x401b6e23e6e295dc, // 6.8575588298603769
		0x401ade01f6852d0a, // 6.7168043631347789
	})
}

// TestLossPinsSingleStage pins a P=1 D=1 run (the tracer experiment's
// reference), where one stage does every forward and backward, and
// Eval(2) after it.
func TestLossPinsSingleStage(t *testing.T) {
	e := mustEngine(t, Config{GPT: charGPT(), P: 1, D: 1, MicroBatch: 8, BatchSize: 32, LR: 3e-3, DataSeed: 35})
	checkBits(t, "P=1 D=1 m=8", e.Losses(5), []uint64{
		0x4014270d125c4f6f, // 5.0381358021585205
		0x401107221256bcac, // 4.2569659104766906
		0x400f34c644dc7d9f, // 3.9007687930859016
		0x400ba9dcf173043f, // 3.4579409468865658
		0x4009548efd4b9db2, // 3.1662883557034656
	})
	checkBits(t, "Eval(2)", []float64{e.Eval(2)}, []uint64{
		0x40095dcbabc7c11e, // 3.1707986278853602
	})
}
