// Package nn is a small, deterministic neural-network library used by
// the real training engine (internal/engine) to validate Varuna's
// semantic claims — sync-SGD preservation under job morphing, tied
// weights across partitions, and the divergence of stale-update
// pipelines — with actual float64 arithmetic rather than cost models.
//
// Everything is plain Go with fixed iteration order: two runs with the
// same seed produce bit-identical results.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// The three matmul kernels below compute every output element as one
// sum over its terms in ascending index order, starting from +0 —
// the order of the textbook loops — so they are bit-identical to
// them. Where the CPU has AVX2, the assembly kernel strips2x8 fills
// each row pair's full 8-column groups four lanes at a time; it
// multiplies, then adds, never fusing the two, so each lane rounds
// exactly as a scalar c += x*b. Go loops on
// 2×4 output tiles held in registers compute the rest: the column
// remainder, an odd last row and every element without AVX2. They
// slice the operands once per tile so the inner loop checks bounds at
// most once per step. Every kernel writes over the caller's out.
//
// The textbook a·b and aᵀ·b loops skip a zero multiplier from a. The
// tiled loops add its product instead, which changes nothing while b
// is finite: the product is ±0, and a partial sum that starts at +0
// is never −0, so adding ±0 leaves it bit-identical. A zero times an
// Inf or NaN is NaN, though, so when b holds one the kernels fall back
// to the textbook loop.

// useSIMD routes each row pair's full column groups to strips2x8. It
// is simdAvailable; tests switch it off to run the Go tiles alone.
var useSIMD = simdAvailable

// simdGroups returns how many full 8-column groups of each row pair
// strips2x8 computes for n output rows, kn terms per sum and m output
// columns: none when it is off or a dimension leaves no strip to fill.
func simdGroups(n, kn, m int) int {
	if !useSIMD || n < 2 || kn < 1 {
		return 0
	}
	return m / 8
}

// matMulInto writes a·b into out.
func matMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkOut(out, a.Rows, b.Cols)
	if !allFinite(b.Data) {
		matMulSkipZero(out, a, b)
		return
	}
	n, kn, m := a.Rows, a.Cols, b.Cols
	ad, bd, od := a.Data[:n*kn], b.Data[:kn*m], out.Data[:n*m]
	j0 := 0 // each row pair's first column left to the Go tiles
	if g := simdGroups(n, kn, m); g > 0 {
		for i := 0; i+2 <= n; i += 2 {
			strips2x8(&od[i*m], &od[(i+1)*m], &ad[i*kn], &ad[(i+1)*kn], &bd[0], 1, m, kn, g)
		}
		j0 = 8 * g
	}
	i := 0
	for ; i+2 <= n; i += 2 {
		a0 := ad[i*kn : (i+1)*kn]
		a1 := ad[(i+1)*kn : (i+2)*kn]
		a1 = a1[:len(a0)]
		o0 := od[i*m : (i+1)*m]
		o1 := od[(i+1)*m : (i+2)*m]
		j := j0
		for ; j+4 <= m; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			p := j
			for k, x0 := range a0 {
				x1 := a1[k]
				bk := bd[p : p+4 : p+4]
				c00 += x0 * bk[0]
				c10 += x1 * bk[0]
				c01 += x0 * bk[1]
				c11 += x1 * bk[1]
				c02 += x0 * bk[2]
				c12 += x1 * bk[2]
				c03 += x0 * bk[3]
				c13 += x1 * bk[3]
				p += m
			}
			oj := o0[j : j+4 : j+4]
			oj[0], oj[1], oj[2], oj[3] = c00, c01, c02, c03
			oj = o1[j : j+4 : j+4]
			oj[0], oj[1], oj[2], oj[3] = c10, c11, c12, c13
		}
		for ; j < m; j++ {
			var c0, c1 float64
			for k, x0 := range a0 {
				bv := bd[k*m+j]
				c0 += x0 * bv
				c1 += a1[k] * bv
			}
			o0[j], o1[j] = c0, c1
		}
	}
	if i < n {
		a0 := ad[i*kn : (i+1)*kn]
		o0 := od[i*m : (i+1)*m]
		for j := range o0 {
			var c float64
			for k, x := range a0 {
				c += x * bd[k*m+j]
			}
			o0[j] = c
		}
	}
}

// matMulATBInto writes aᵀ·b into out.
func matMulATBInto(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: matmulATB shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkOut(out, a.Cols, b.Cols)
	if !allFinite(b.Data) {
		matMulATBSkipZero(out, a, b)
		return
	}
	rn, n, m := a.Rows, a.Cols, b.Cols
	ad, bd, od := a.Data[:rn*n], b.Data[:rn*m], out.Data[:n*m]
	j0 := 0 // each row pair's first column left to the Go tiles
	if g := simdGroups(n, rn, m); g > 0 {
		// Output row i's terms are column i of a: a stride of n.
		for i := 0; i+2 <= n; i += 2 {
			strips2x8(&od[i*m], &od[(i+1)*m], &ad[i], &ad[i+1], &bd[0], n, m, rn, g)
		}
		j0 = 8 * g
	}
	i := 0
	for ; i+2 <= n; i += 2 {
		o0 := od[i*m : (i+1)*m]
		o1 := od[(i+1)*m : (i+2)*m]
		j := j0
		for ; j+4 <= m; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			pa, pb := i, j
			for r := 0; r < rn; r++ {
				ar := ad[pa : pa+2 : pa+2]
				br := bd[pb : pb+4 : pb+4]
				x0, x1 := ar[0], ar[1]
				c00 += x0 * br[0]
				c10 += x1 * br[0]
				c01 += x0 * br[1]
				c11 += x1 * br[1]
				c02 += x0 * br[2]
				c12 += x1 * br[2]
				c03 += x0 * br[3]
				c13 += x1 * br[3]
				pa += n
				pb += m
			}
			oj := o0[j : j+4 : j+4]
			oj[0], oj[1], oj[2], oj[3] = c00, c01, c02, c03
			oj = o1[j : j+4 : j+4]
			oj[0], oj[1], oj[2], oj[3] = c10, c11, c12, c13
		}
		for ; j < m; j++ {
			var c0, c1 float64
			for r := 0; r < rn; r++ {
				bv := bd[r*m+j]
				c0 += ad[r*n+i] * bv
				c1 += ad[r*n+i+1] * bv
			}
			o0[j], o1[j] = c0, c1
		}
	}
	if i < n {
		o0 := od[i*m : (i+1)*m]
		for j := range o0 {
			var c float64
			for r := 0; r < rn; r++ {
				c += ad[r*n+i] * bd[r*m+j]
			}
			o0[j] = c
		}
	}
}

// matMulABTInto writes a·bᵀ into out.
func matMulABTInto(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmulABT shape mismatch %dx%d · %dx%d ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkOut(out, a.Rows, b.Rows)
	n, kn, m := a.Rows, a.Cols, b.Rows
	ad, bd, od := a.Data[:n*kn], b.Data[:m*kn], out.Data[:n*m]
	j0 := 0 // each row pair's first column left to the Go tiles
	if g := simdGroups(n, kn, m); g > 0 {
		// strips2x8 reads b's first 8g rows as the columns of a
		// kn×8g matrix: transpose them into pooled scratch. The
		// textbook a·bᵀ skips no zero, so no non-finite fallback.
		w := 8 * g
		buf := transposePool.Get().(*buffer)
		bt := buf.shape(kn, w).Data
		for j := 0; j < w; j++ {
			for k, v := range bd[j*kn : (j+1)*kn] {
				bt[k*w+j] = v
			}
		}
		for i := 0; i+2 <= n; i += 2 {
			strips2x8(&od[i*m], &od[(i+1)*m], &ad[i*kn], &ad[(i+1)*kn], &bt[0], 1, w, kn, g)
		}
		transposePool.Put(buf)
		j0 = w
	}
	i := 0
	for ; i+2 <= n; i += 2 {
		a0 := ad[i*kn : (i+1)*kn]
		a1 := ad[(i+1)*kn : (i+2)*kn]
		a1 = a1[:len(a0)]
		o0 := od[i*m : (i+1)*m]
		o1 := od[(i+1)*m : (i+2)*m]
		j := j0
		for ; j+4 <= m; j += 4 {
			b0 := bd[j*kn : (j+1)*kn]
			b1 := bd[(j+1)*kn : (j+2)*kn]
			b2 := bd[(j+2)*kn : (j+3)*kn]
			b3 := bd[(j+3)*kn : (j+4)*kn]
			b0, b1, b2, b3 = b0[:len(a0)], b1[:len(a0)], b2[:len(a0)], b3[:len(a0)]
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			for k, x0 := range a0 {
				x1 := a1[k]
				c00 += x0 * b0[k]
				c10 += x1 * b0[k]
				c01 += x0 * b1[k]
				c11 += x1 * b1[k]
				c02 += x0 * b2[k]
				c12 += x1 * b2[k]
				c03 += x0 * b3[k]
				c13 += x1 * b3[k]
			}
			oj := o0[j : j+4 : j+4]
			oj[0], oj[1], oj[2], oj[3] = c00, c01, c02, c03
			oj = o1[j : j+4 : j+4]
			oj[0], oj[1], oj[2], oj[3] = c10, c11, c12, c13
		}
		for ; j < m; j++ {
			bj := bd[j*kn : (j+1)*kn]
			bj = bj[:len(a0)]
			var c0, c1 float64
			for k, x0 := range a0 {
				c0 += x0 * bj[k]
				c1 += a1[k] * bj[k]
			}
			o0[j], o1[j] = c0, c1
		}
	}
	if i < n {
		a0 := ad[i*kn : (i+1)*kn]
		o0 := od[i*m : (i+1)*m]
		for j := range o0 {
			bj := bd[j*kn : (j+1)*kn]
			bj = bj[:len(a0)]
			var c float64
			for k, x := range a0 {
				c += x * bj[k]
			}
			o0[j] = c
		}
	}
}

// matMulSkipZero is the textbook a·b loop that skips a zero from a:
// the fallback for a b holding an Inf or NaN.
func matMulSkipZero(out, a, b *Matrix) {
	clear(out.Data)
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
}

// matMulATBSkipZero is the textbook aᵀ·b loop that skips a zero from
// a: the fallback for a b holding an Inf or NaN.
func matMulATBSkipZero(out, a, b *Matrix) {
	clear(out.Data)
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
}

// checkOut panics unless out is rows×cols.
func checkOut(out *Matrix, rows, cols int) {
	if out.Rows != rows || out.Cols != cols || len(out.Data) != rows*cols {
		panic(fmt.Sprintf("nn: output is %dx%d, want %dx%d", out.Rows, out.Cols, rows, cols))
	}
}

// allFinite reports whether xs holds no Inf or NaN.
func allFinite(xs []float64) bool {
	const exp = 0x7ff << 52
	for _, v := range xs {
		if math.Float64bits(v)&exp == exp {
			return false
		}
	}
	return true
}

// AddInPlace adds b into a element-wise.
func AddInPlace(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("nn: add shape mismatch")
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	// Name identifies the parameter for checkpointing and the tracer.
	Name string
	// Value and Grad are flat storage; shape is owned by the layer.
	Value, Grad []float64
	// Shared marks parameters synchronized across pipeline stages
	// (tied weights, §5.2).
	Shared bool
}

// NewParam allocates a parameter initialized by init.
func NewParam(name string, n int, init func(i int) float64) *Param {
	p := &Param{Name: name, Value: make([]float64, n), Grad: make([]float64, n)}
	for i := range p.Value {
		p.Value[i] = init(i)
	}
	return p
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Init helpers ------------------------------------------------------

// XavierInit returns an initializer drawing from U(−lim, lim) with the
// Xavier bound for the given fan-in/out, using a deterministic source.
func XavierInit(rng *rand.Rand, fanIn, fanOut int) func(int) float64 {
	lim := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return func(int) float64 { return (rng.Float64()*2 - 1) * lim }
}

// ZeroInit returns zeros (for biases).
func ZeroInit(int) float64 { return 0 }
