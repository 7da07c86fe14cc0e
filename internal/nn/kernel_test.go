package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The textbook loops the tiled kernels replaced, kept verbatim as
// oracles: every kernel result must equal theirs bit for bit.

func refMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulATB(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	for r := 0; r < a.Rows; r++ {
		ar := a.Row(r)
		br := b.Row(r)
		for i, av := range ar {
			if av == 0 {
				continue
			}
			or := out.Row(i)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulABT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			br := b.Row(j)
			var s float64
			for k, av := range ar {
				s += av * br[k]
			}
			or[j] = s
		}
	}
	return out
}

// Entry mixes for generated operands.
const (
	mixNormal  = iota // standard normals only
	mixFinite         // plus ±0, subnormals and values whose products overflow
	mixSpecial        // plus ±Inf and NaN
	numMixes
)

func mixedMatrix(rng *rand.Rand, rows, cols, mix int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = mixedValue(rng, mix)
	}
	return m
}

func mixedValue(rng *rand.Rand, mix int) float64 {
	v := rng.NormFloat64()
	if mix == mixNormal {
		return v
	}
	kinds := 6
	if mix == mixSpecial {
		kinds = 9
	}
	switch rng.Intn(kinds + 4) { // normals stay the most common entry
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return v * 1e-310 // subnormal
	case 3:
		return v * 1e300 // overflows when multiplied by another
	case 4:
		return v * math.SmallestNonzeroFloat64
	case 5:
		return -v * 1e-320
	case 6:
		return math.Inf(1)
	case 7:
		return math.Inf(-1)
	case 8:
		return math.NaN()
	}
	return v
}

// sameBits reports whether two results are equal bit for bit, NaNs
// matching any NaN.
func sameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d = %v (%#x), textbook loop gives %v (%#x)",
				what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

type kernelShape struct{ n, k, m int }

// kernelShapes covers 1..9 in each dimension (every tile remainder);
// up to 33 columns, several 8-wide strips with every remainder; each
// dimension at zero; and the transformer block's shapes.
func kernelShapes() []kernelShape {
	var out []kernelShape
	for n := 1; n <= 9; n++ {
		for k := 1; k <= 9; k++ {
			for m := 1; m <= 9; m++ {
				out = append(out, kernelShape{n, k, m})
			}
		}
	}
	for n := 1; n <= 5; n++ {
		for _, k := range []int{1, 2, 7, 24} {
			for m := 1; m <= 33; m++ {
				if k <= 9 && m <= 9 {
					continue // in the cube above
				}
				out = append(out, kernelShape{n, k, m})
			}
		}
	}
	return append(out,
		kernelShape{0, 3, 17}, kernelShape{4, 0, 17}, kernelShape{4, 3, 0}, kernelShape{0, 0, 0},
		kernelShape{96, 24, 24}, kernelShape{96, 24, 48}, kernelShape{96, 48, 24})
}

// kernelPaths runs f once on each matmul path this build and CPU
// have: the Go tiles alone, then with the assembly strips.
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	defer func(saved bool) { useSIMD = saved }(useSIMD)
	for _, simd := range []bool{false, true} {
		if simd && !simdAvailable {
			t.Log("no AVX2 assembly in this build or on this CPU: Go tiles only")
			continue
		}
		useSIMD = simd
		name := "go"
		if simd {
			name = "avx2"
		}
		t.Run(name, f)
	}
}

// TestKernelsMatchTextbookLoops is the differential test of the
// kernels: for every shape and every pair of entry mixes, a·b, aᵀ·b
// and a·bᵀ equal the textbook loops bit for bit, on the Go tiles alone
// and with the assembly strips, whether the kernel takes the tiled
// path or the non-finite fallback.
func TestKernelsMatchTextbookLoops(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for _, s := range kernelShapes() {
			for ma := 0; ma < numMixes; ma++ {
				for mb := 0; mb < numMixes; mb++ {
					matchTextbookLoops(t, rng, s, ma, mb)
				}
			}
		}
	})
}

// matchTextbookLoops checks a·b, aᵀ·b and a·bᵀ of shape s, with a's
// entries from mix ma and b's from mb, against the textbook loops.
func matchTextbookLoops(t *testing.T, rng *rand.Rand, s kernelShape, ma, mb int) {
	t.Helper()
	// a·b: a is n×k, b is k×m.
	a, b := mixedMatrix(rng, s.n, s.k, ma), mixedMatrix(rng, s.k, s.m, mb)
	out := NewMatrix(s.n, s.m)
	matMulInto(out, a, b)
	sameBits(t, "matMulInto "+shapeName(s), out, refMatMul(a, b))
	// aᵀ·b: a is k×n, b is k×m.
	a, b = mixedMatrix(rng, s.k, s.n, ma), mixedMatrix(rng, s.k, s.m, mb)
	out = NewMatrix(s.n, s.m)
	matMulATBInto(out, a, b)
	sameBits(t, "matMulATBInto "+shapeName(s), out, refMatMulATB(a, b))
	// a·bᵀ: a is n×k, b is m×k.
	a, b = mixedMatrix(rng, s.n, s.k, ma), mixedMatrix(rng, s.m, s.k, mb)
	out = NewMatrix(s.n, s.m)
	matMulABTInto(out, a, b)
	sameBits(t, "matMulABTInto "+shapeName(s), out, refMatMulABT(a, b))
}

// TestKernelsAllocateNothing checks that the …Into kernels the layers
// call allocate nothing once warm, a·bᵀ's pooled transpose included.
func TestKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x, w := mixedMatrix(rng, 96, 24, mixNormal), mixedMatrix(rng, 24, 48, mixNormal)
	dy := mixedMatrix(rng, 96, 48, mixNormal)
	y, dW, dx := NewMatrix(96, 48), NewMatrix(24, 48), NewMatrix(96, 24)
	kernelPaths(t, func(t *testing.T) {
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"matMulInto", func() { matMulInto(y, x, w) }},
			{"matMulATBInto", func() { matMulATBInto(dW, x, dy) }},
			{"matMulABTInto", func() { matMulABTInto(dx, dy, w) }},
		} {
			if n := testing.AllocsPerRun(100, c.run); n != 0 {
				t.Errorf("%s: %v allocations per call, want 0", c.name, n)
			}
		}
	})
}

// TestKernelsOverwriteOut checks the Into forms replace whatever the
// caller's buffer held, on both paths and on both the tiled and the
// fallback path; 19 columns are two strips and a remainder.
func TestKernelsOverwriteOut(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		dirty := func(rows, cols int) *Matrix {
			m := NewMatrix(rows, cols)
			for i := range m.Data {
				m.Data[i] = math.NaN()
			}
			return m
		}
		for _, mix := range []int{mixFinite, mixSpecial} {
			a, b := mixedMatrix(rng, 5, 7, mixFinite), mixedMatrix(rng, 7, 19, mix)
			out := dirty(5, 19)
			matMulInto(out, a, b)
			sameBits(t, "matMulInto", out, refMatMul(a, b))

			a, b = mixedMatrix(rng, 7, 5, mixFinite), mixedMatrix(rng, 7, 19, mix)
			out = dirty(5, 19)
			matMulATBInto(out, a, b)
			sameBits(t, "matMulATBInto", out, refMatMulATB(a, b))

			a, b = mixedMatrix(rng, 5, 7, mixFinite), mixedMatrix(rng, 19, 7, mix)
			out = dirty(5, 19)
			matMulABTInto(out, a, b)
			sameBits(t, "matMulABTInto", out, refMatMulABT(a, b))
		}
	})
}

func benchMatMul(bm *testing.B, kernel func(out, a, b *Matrix), out, a, b *Matrix) {
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		kernel(out, a, b)
	}
}

// The block's matmul shapes at micro-batch 8 × seq 12, Dim 24, MLP 2×.

func BenchmarkMatMul(bm *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []kernelShape{{96, 24, 24}, {96, 24, 48}, {96, 48, 24}} {
		a, b := mixedMatrix(rng, s.n, s.k, mixNormal), mixedMatrix(rng, s.k, s.m, mixNormal)
		bm.Run(shapeName(s), func(bm *testing.B) { benchMatMul(bm, matMulInto, NewMatrix(s.n, s.m), a, b) })
	}
}

func BenchmarkMatMulATB(bm *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range []kernelShape{{96, 24, 24}, {96, 24, 48}, {96, 48, 24}} {
		// The weight gradient xᵀ·dy: x is 96×k, dy is 96×m.
		a, b := mixedMatrix(rng, s.n, s.k, mixNormal), mixedMatrix(rng, s.n, s.m, mixNormal)
		bm.Run(shapeName(s), func(bm *testing.B) { benchMatMul(bm, matMulATBInto, NewMatrix(s.k, s.m), a, b) })
	}
}

func BenchmarkMatMulABT(bm *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range []kernelShape{{96, 24, 24}, {96, 24, 48}, {96, 48, 24}} {
		// The input gradient dy·Wᵀ: dy is 96×m, W is k×m.
		a, b := mixedMatrix(rng, s.n, s.m, mixNormal), mixedMatrix(rng, s.k, s.m, mixNormal)
		bm.Run(shapeName(s), func(bm *testing.B) { benchMatMul(bm, matMulABTInto, NewMatrix(s.n, s.k), a, b) })
	}
}

func shapeName(s kernelShape) string { return fmt.Sprintf("%dx%dx%d", s.n, s.k, s.m) }
