package nn

import (
	"math"
	"math/rand"
	"testing"
)

// checkGrads checks the analytic parameter and input gradients of a
// layer named name against central differences on a scalar loss
// L = Σ y⊙w. forward computes the layer's output for x, and backward
// the input gradient for dy through the latest forward.
func checkGrads(t *testing.T, name string, params []*Param, x *Matrix, tol float64,
	forward func(x *Matrix) *Matrix, backward func(dy *Matrix) *Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	y := forward(x)
	w := NewMatrix(y.Rows, y.Cols)
	for i := range w.Data {
		w.Data[i] = rng.Float64()*2 - 1
	}
	loss := func() float64 {
		y := forward(x)
		var s float64
		for i, v := range y.Data {
			s += v * w.Data[i]
		}
		return s
	}
	// Analytic.
	for _, p := range params {
		p.ZeroGrad()
	}
	forward(x)
	// dx is read only before the layer's next Backward, as long as the
	// Layer contract keeps it: loss runs Forwards alone.
	dx := backward(clone(w))

	const h = 1e-6
	// Parameter gradients (sample a few indices per param).
	for _, p := range params {
		idxs := sampleIdx(rng, len(p.Value), 6)
		for _, i := range idxs {
			orig := p.Value[i]
			p.Value[i] = orig + h
			lp := loss()
			p.Value[i] = orig - h
			lm := loss()
			p.Value[i] = orig
			num := (lp - lm) / (2 * h)
			if relErr(num, p.Grad[i]) > tol {
				t.Errorf("%s param %s[%d]: numeric %g vs analytic %g", name, p.Name, i, num, p.Grad[i])
			}
		}
	}
	// Input gradients.
	if dx != nil {
		idxs := sampleIdx(rng, len(x.Data), 6)
		for _, i := range idxs {
			orig := x.Data[i]
			x.Data[i] = orig + h
			lp := loss()
			x.Data[i] = orig - h
			lm := loss()
			x.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if relErr(num, dx.Data[i]) > tol {
				t.Errorf("%s input[%d]: numeric %g vs analytic %g", name, i, num, dx.Data[i])
			}
		}
	}
}

// checkLayerGrads is checkGrads through a Layer's Forward and Backward.
func checkLayerGrads(t *testing.T, name string, l Layer, x *Matrix, tol float64) {
	t.Helper()
	var ctx Ctx
	checkGrads(t, name, l.Params(), x, tol,
		func(x *Matrix) *Matrix {
			y, c := l.Forward(x)
			ctx = c
			return y
		},
		func(dy *Matrix) *Matrix { return l.Backward(ctx, dy) })
}

// clone deep-copies m.
func clone(m *Matrix) *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

func sampleIdx(rng *rand.Rand, n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(n)
	return perm[:k]
}

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	s := math.Abs(a) + math.Abs(b)
	if s < 1e-8 {
		return d
	}
	return d / s
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// The Linear, GELU and LayerNorm tests check the kernels a Block runs,
// into fresh outputs and input gradients.

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("lin", 5, 3, rng)
	x := randMatrix(rng, 4, 5)
	checkGrads(t, "lin", l.Params(), x, 1e-5,
		func(x *Matrix) *Matrix {
			y := NewMatrix(x.Rows, l.Out)
			l.forwardInto(y, x)
			return y
		},
		func(dy *Matrix) *Matrix {
			dx, s := NewMatrix(dy.Rows, l.In), getScratch()
			defer putScratch(s)
			l.backwardInto(dx, x, dy, s)
			return dx
		})
}

func TestGeluGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randMatrix(rng, 3, 7)
	th := NewMatrix(3, 7)
	checkGrads(t, "gelu", nil, x, 1e-5,
		func(x *Matrix) *Matrix {
			y := NewMatrix(x.Rows, x.Cols)
			geluKeepInto(y, th, x)
			return y
		},
		func(dy *Matrix) *Matrix {
			dx := NewMatrix(dy.Rows, dy.Cols)
			geluKeptBackwardInto(dx, x, th, dy)
			return dx
		})
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLayerNorm("ln", 6)
	x := randMatrix(rng, 4, 6)
	xhat, invS := NewMatrix(4, 6), make([]float64, 4)
	checkGrads(t, "ln", l.Params(), x, 1e-4,
		func(x *Matrix) *Matrix {
			y := NewMatrix(x.Rows, x.Cols)
			l.forwardInto(y, xhat, invS, x)
			return y
		},
		func(dy *Matrix) *Matrix {
			dx, s := NewMatrix(dy.Rows, dy.Cols), getScratch()
			defer putScratch(s)
			l.backwardInto(dx, xhat, invS, dy, s)
			return dx
		})
}

func TestBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := NewBlock("blk", 8, 4, 2, rng)
	checkLayerGrads(t, "blk", b, randMatrix(rng, 8, 8), 1e-4) // 2 examples × seq 4
}

func TestEmbeddingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEmbedding("emb", 11, 6, 3, rng)
	ids := NewMatrix(2, 3)
	for i := range ids.Data {
		ids.Data[i] = float64(rng.Intn(11))
	}
	checkLayerGrads(t, "emb", e, ids, 1e-5)
}

func TestOutputProjectionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := NewEmbedding("emb", 9, 5, 2, rng)
	o := NewOutputProjection("head", e)
	checkLayerGrads(t, "head", o, randMatrix(rng, 4, 5), 1e-5)
}

func TestTiedProjectionIsIndependentCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEmbedding("emb", 9, 5, 2, rng)
	o := NewOutputProjection("head", e)
	if !e.W.Shared || !o.W.Shared {
		t.Fatal("tied params must be marked Shared")
	}
	if e.W.Name != o.W.Name {
		t.Fatal("tied params must share a name for cross-stage sync")
	}
	if &e.W.Value[0] == &o.W.Value[0] {
		t.Fatal("tied params must be physically separate (different devices)")
	}
	for i := range e.W.Value {
		if e.W.Value[i] != o.W.Value[i] {
			t.Fatal("tied params must start identical")
		}
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := randMatrix(rng, 6, 5) // B=3, T=2
	targets := NewMatrix(3, 2)
	for i := range targets.Data {
		targets.Data[i] = float64(rng.Intn(5))
	}
	dl := NewMatrix(6, 5)
	SoftmaxCrossEntropy(0, logits, targets, dl, 3)
	const h = 1e-6
	for _, i := range sampleIdx(rng, len(logits.Data), 10) {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		lp := SoftmaxCrossEntropy(0, logits, targets, nil, 3)
		logits.Data[i] = orig - h
		lm := SoftmaxCrossEntropy(0, logits, targets, nil, 3)
		logits.Data[i] = orig
		// The loss is a sum over the B·T rows; the gradient is scaled
		// for a mean over totalExamples·T: 3·2 rows here too.
		num := (lp - lm) / (2 * h)
		ana := dl.Data[i] * float64(3*2)
		if relErr(num, ana) > 1e-4 {
			t.Errorf("loss grad[%d]: numeric %g vs analytic %g", i, num, ana)
		}
	}
}

func TestMatrixOps(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Matrix{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	c := NewMatrix(2, 2)
	matMulInto(c, a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("matmul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
	// aᵀ·(a·b) is 3×2 and (a·b)·bᵀ is 2×3; a wrong out shape panics.
	matMulATBInto(NewMatrix(3, 2), a, c)
	matMulABTInto(NewMatrix(2, 3), c, b)
	mustPanic(t, "output is 2x2", func() { matMulABTInto(NewMatrix(2, 2), c, b) })
	mustPanic(t, "shape mismatch", func() { matMulInto(NewMatrix(2, 3), a, a) })
}

func TestAdamConvergesQuadratic(t *testing.T) {
	// Minimize (x-3)² elementwise.
	p := NewParam("x", 4, func(int) float64 { return 10 })
	opt := NewAdam(0.1)
	for i := 0; i < 2000; i++ {
		for j, v := range p.Value {
			p.Grad[j] = 2 * (v - 3)
		}
		opt.Step([]*Param{p})
	}
	for _, v := range p.Value {
		if math.Abs(v-3) > 0.01 {
			t.Fatalf("Adam did not converge: %v", p.Value)
		}
	}
	if opt.step != 2000 {
		t.Fatal("step count")
	}
}

func TestAdamDeterminism(t *testing.T) {
	run := func() []float64 {
		layers := BuildGPT(GPTConfig{Vocab: 17, Dim: 8, SeqLen: 4, Layers: 2, Seed: 42})
		var params []*Param
		for _, l := range layers {
			params = append(params, l.Params()...)
		}
		out := make([]float64, 0, 16)
		for _, p := range params[:2] {
			out = append(out, p.Value[:4]...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must build identical models")
		}
	}
}

func TestBuildGPTStructure(t *testing.T) {
	layers := BuildGPT(GPTConfig{Vocab: 17, Dim: 8, SeqLen: 4, Layers: 3, Seed: 1})
	if len(layers) != 5 {
		t.Fatalf("layers = %d, want embedding+3 blocks+head = 5", len(layers))
	}
	_, emb := layers[0].(*Embedding)
	_, head := layers[4].(*OutputProjection)
	if !emb || !head {
		t.Fatal("layer order wrong")
	}
	// A full forward/backward pass runs without panics and with
	// correct shapes.
	ids := NewMatrix(2, 4)
	x := &Matrix{Rows: 2, Cols: 4, Data: []float64{1, 2, 3, 4, 5, 6, 7, 8}}
	_ = ids
	var ctxs []Ctx
	h := x
	for _, l := range layers {
		var c Ctx
		h, c = l.Forward(h)
		ctxs = append(ctxs, c)
	}
	if h.Rows != 8 || h.Cols != 17 {
		t.Fatalf("logits shape %dx%d, want 8x17", h.Rows, h.Cols)
	}
	targets := NewMatrix(2, 4)
	dl := NewMatrix(h.Rows, h.Cols)
	loss := SoftmaxCrossEntropy(0, h, targets, dl, 2)
	if math.IsNaN(loss) || loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	dy := dl
	for i := len(layers) - 1; i >= 0; i-- {
		dy = layers[i].Backward(ctxs[i], dy)
	}
}

func TestRecomputeReproducesForward(t *testing.T) {
	// The engine's recompute contract: re-running Forward on the same
	// input yields bit-identical activations and a usable fresh ctx.
	// The second Forward overwrites the first one's output, so keep a
	// copy of it.
	rng := rand.New(rand.NewSource(11))
	b := NewBlock("blk", 8, 4, 2, rng)
	x := randMatrix(rng, 8, 8)
	y, _ := b.Forward(x)
	y1 := clone(y)
	y2, ctx2 := b.Forward(x)
	for i := range y1.Data {
		if math.Float64bits(y1.Data[i]) != math.Float64bits(y2.Data[i]) {
			t.Fatal("forward must be deterministic for recompute")
		}
	}
	dy := randMatrix(rng, 8, 8)
	for _, p := range b.Params() {
		p.ZeroGrad()
	}
	dx := b.Backward(ctx2, dy)
	if dx == nil || dx.Rows != 8 {
		t.Fatal("backward through recomputed ctx failed")
	}
}
