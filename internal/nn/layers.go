package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// Layer is one pipeline-partitionable unit: the Embedding, a Block or
// the OutputProjection. Forward computes the output and keeps in the
// layer what Backward reads; Backward accumulates parameter gradients
// and returns the input gradient. A layer keeps only its latest
// Forward's state, named by the Ctx that Forward returns, so a caller
// that checkpoints re-runs Forward from the stashed input right before
// Backward — exactly Varuna's recompute (§3.1).
//
// Forward's output stays valid until the layer's next Forward, and
// Backward's input gradient until its next Backward; a caller that
// needs either one longer copies it. Backward panics, naming the
// layer, on a context a later Forward has replaced, another layer's
// context or the zero Ctx. It reads the input Forward was given, so
// that must not change in between either.
type Layer interface {
	// Forward computes the layer output for x.
	Forward(x *Matrix) (*Matrix, Ctx)
	// Backward propagates dy through the Forward ctx names,
	// accumulating into Params.
	Backward(ctx Ctx, dy *Matrix) *Matrix
	// Params lists the layer's trainable tensors.
	Params() []*Param
}

// Ctx names one Forward of one layer. Its generation comes from one
// package-wide counter that starts at 1, so no two Forwards of any
// layers share a Ctx and the zero Ctx names none.
type Ctx struct{ gen uint64 }

var generations atomic.Uint64

// newCtx names a new Forward.
func newCtx() Ctx { return Ctx{gen: generations.Add(1)} }

// checkCtx panics, naming the layer, unless ctx is latest, the context
// of the layer's latest Forward.
func checkCtx(ctx, latest Ctx, layer string) {
	if ctx != latest || ctx == (Ctx{}) {
		panic(fmt.Sprintf("nn: %s: Backward given a stale context: a later Forward has run, or it is another layer's or the zero Ctx", layer))
	}
}

// ---- Linear --------------------------------------------------------

// Linear is y = x·W + b (bias optional), one of a Block's sub-layers:
// the Block runs its kernels into its workspace and scratch.
type Linear struct {
	In, Out int
	W, B    *Param // B is nil for bias-free projections
}

// NewLinear builds a Linear layer with Xavier weights.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{
		In: in, Out: out,
		W: NewParam(name+".W", in*out, XavierInit(rng, in, out)),
		B: NewParam(name+".b", out, ZeroInit),
	}
}

// NewLinearNoBias builds a bias-free Linear layer. The key projection
// of attention uses this: a key bias shifts every score in a row by the
// same amount, which softmax cancels — a loss null-direction whose
// gradient is pure rounding noise that adaptive optimizers then
// amplify into spurious parameter drift.
func NewLinearNoBias(name string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{
		In: in, Out: out,
		W: NewParam(name+".W", in*out, XavierInit(rng, in, out)),
	}
}

// weight views W as an In×Out matrix.
func (l *Linear) weight() *Matrix { return &Matrix{Rows: l.In, Cols: l.Out, Data: l.W.Value} }

// forwardInto writes x·W + b into y.
func (l *Linear) forwardInto(y, x *Matrix) {
	matMulInto(y, x, l.weight())
	if l.B != nil {
		bias := l.B.Value[:y.Cols]
		for i := 0; i < y.Rows; i++ {
			row := y.Row(i)
			for j, b := range bias {
				row[j] += b
			}
		}
	}
}

// backwardInto accumulates the parameter gradients for input x and
// output gradient dy, and writes the input gradient into dx.
func (l *Linear) backwardInto(dx, x, dy *Matrix, s *scratch) {
	dW := s.dW.shape(l.In, l.Out)
	matMulATBInto(dW, x, dy)
	grad := l.W.Grad[:len(dW.Data)]
	for i, v := range dW.Data {
		grad[i] += v
	}
	if l.B != nil {
		grad := l.B.Grad[:dy.Cols]
		for i := 0; i < dy.Rows; i++ {
			for j, v := range dy.Row(i) {
				grad[j] += v
			}
		}
	}
	matMulABTInto(dx, dy, l.weight())
}

// Params lists W, then B if there is one.
func (l *Linear) Params() []*Param {
	if l.B == nil {
		return []*Param{l.W}
	}
	return []*Param{l.W, l.B}
}

// ---- GELU ----------------------------------------------------------

const geluC = 0.7978845608028654 // sqrt(2/pi)

// geluKeepInto writes the tanh-approximated GELU(x) into y, keeping
// each element's tanh term in th: geluKeptBackwardInto reads it
// instead of calling math.Tanh again, which gives the same bits.
func geluKeepInto(y, th, x *Matrix) {
	yd, td := y.Data[:len(x.Data)], th.Data[:len(x.Data)]
	for i, v := range x.Data {
		t := math.Tanh(geluC * (v + 0.044715*v*v*v))
		td[i] = t
		yd[i] = 0.5 * v * (1 + t)
	}
}

// geluKeptBackwardInto writes GELU's input gradient for input x, its
// kept tanh terms th and output gradient dy into dx, which may be dy
// itself.
func geluKeptBackwardInto(dx, x, th, dy *Matrix) {
	td, dyd, dxd := th.Data[:len(x.Data)], dy.Data[:len(x.Data)], dx.Data[:len(x.Data)]
	for i, v := range x.Data {
		t := td[i]
		du := geluC * (1 + 3*0.044715*v*v)
		d := 0.5*(1+t) + 0.5*v*(1-t*t)*du
		dxd[i] = dyd[i] * d
	}
}

// ---- LayerNorm -----------------------------------------------------

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies a learned affine transform. It is one of a Block's
// sub-layers: the Block runs its kernels into its workspace and
// scratch.
type LayerNorm struct {
	Dim  int
	G, B *Param
}

// NewLayerNorm builds a LayerNorm over dim features.
func NewLayerNorm(name string, dim int) *LayerNorm {
	return &LayerNorm{
		Dim: dim,
		G:   NewParam(name+".g", dim, func(int) float64 { return 1 }),
		B:   NewParam(name+".b", dim, ZeroInit),
	}
}

const lnEps = 1e-5

// forwardInto normalizes x into y, keeping the normalized rows in xhat
// and each row's inverse standard deviation in invS for the backward.
func (l *LayerNorm) forwardInto(y, xhat *Matrix, invS []float64, x *Matrix) {
	g, b := l.G.Value[:x.Cols], l.B.Value[:x.Cols]
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		var varr float64
		for _, v := range row {
			d := v - mean
			varr += d * d
		}
		varr /= float64(len(row))
		inv := 1 / math.Sqrt(varr+lnEps)
		invS[i] = inv
		xr := xhat.Row(i)[:len(row)]
		yr := y.Row(i)[:len(row)]
		for j, v := range row {
			xr[j] = (v - mean) * inv
			yr[j] = xr[j]*g[j] + b[j]
		}
	}
}

// backwardInto accumulates the gain and bias gradients for output
// gradient dy and writes the input gradient into dx, which may be dy
// itself.
func (l *LayerNorm) backwardInto(dx, xhat *Matrix, invS []float64, dy *Matrix, s *scratch) {
	n := float64(l.Dim)
	dxh := s.row.shape(1, l.Dim).Data
	g := l.G.Value[:l.Dim]
	gGrad, bGrad := l.G.Grad[:l.Dim], l.B.Grad[:l.Dim]
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)[:l.Dim]
		xr := xhat.Row(i)[:l.Dim]
		var sumDxh, sumDxhX float64
		for j := range dyr {
			gGrad[j] += dyr[j] * xr[j]
			bGrad[j] += dyr[j]
			dxh[j] = dyr[j] * g[j]
			sumDxh += dxh[j]
			sumDxhX += dxh[j] * xr[j]
		}
		// dyr is spent: dxr may alias it.
		dxr := dx.Row(i)[:l.Dim]
		for j := range dxr {
			dxr[j] = (dxh[j] - sumDxh/n - xr[j]*sumDxhX/n) * invS[i]
		}
	}
}

// Params lists G and B.
func (l *LayerNorm) Params() []*Param { return []*Param{l.G, l.B} }

// ---- Embedding -----------------------------------------------------

// Embedding maps token ids (encoded as float64 in a [B, T] matrix) to
// [B·T, H] vectors plus a learned positional embedding. Its weight can
// be shared with an OutputProjection (tied embeddings).
type Embedding struct {
	name       string
	Vocab, Dim int
	SeqLen     int
	W          *Param // Vocab×Dim
	Pos        *Param // SeqLen×Dim

	out buffer  // Forward's output
	ids *Matrix // the latest Forward's token ids, which Backward reads
	ctx Ctx     // the latest Forward's
}

// NewEmbedding builds an embedding table.
func NewEmbedding(name string, vocab, dim, seqLen int, rng *rand.Rand) *Embedding {
	e := &Embedding{
		name: name, Vocab: vocab, Dim: dim, SeqLen: seqLen,
		W:   NewParam(name+".W", vocab*dim, XavierInit(rng, vocab, dim)),
		Pos: NewParam(name+".pos", seqLen*dim, XavierInit(rng, seqLen, dim)),
	}
	return e
}

// Forward implements Layer.
func (e *Embedding) Forward(ids *Matrix) (*Matrix, Ctx) {
	b, t := ids.Rows, ids.Cols
	if t != e.SeqLen {
		panic(fmt.Sprintf("nn: embedding expects seq %d, got %d", e.SeqLen, t))
	}
	y := e.out.shape(b*t, e.Dim) // every element is written below
	for i := 0; i < b; i++ {
		for j := 0; j < t; j++ {
			id := int(ids.At(i, j))
			if id < 0 || id >= e.Vocab {
				panic(fmt.Sprintf("nn: token id %d out of vocab %d", id, e.Vocab))
			}
			row := y.Row(i*t + j)
			wrow := e.W.Value[id*e.Dim : (id+1)*e.Dim]
			prow := e.Pos.Value[j*e.Dim : (j+1)*e.Dim]
			for k := range row {
				row[k] = wrow[k] + prow[k]
			}
		}
	}
	e.ids, e.ctx = ids, newCtx()
	return y, e.ctx
}

// Backward implements Layer.
func (e *Embedding) Backward(ctx Ctx, dy *Matrix) *Matrix {
	checkCtx(ctx, e.ctx, e.name)
	b, t := e.ids.Rows, e.ids.Cols
	for i := 0; i < b; i++ {
		for j := 0; j < t; j++ {
			id := int(e.ids.At(i, j))
			row := dy.Row(i*t + j)
			wg := e.W.Grad[id*e.Dim : (id+1)*e.Dim]
			pg := e.Pos.Grad[j*e.Dim : (j+1)*e.Dim]
			for k, v := range row {
				wg[k] += v
				pg[k] += v
			}
		}
	}
	return nil // token ids carry no gradient
}

// Params implements Layer.
func (e *Embedding) Params() []*Param { return []*Param{e.W, e.Pos} }

// ---- OutputProjection (tied) ----------------------------------------

// OutputProjection computes logits = x·Wᵀ against the embedding table.
// When tied to an Embedding it holds its own physical copy of the
// weight (the two layers may live on different pipeline stages, i.e.
// different devices) marked Shared under the embedding's parameter
// name: the engine must synchronize gradients of same-named Shared
// parameters across stages every mini-batch, exactly the cross-
// partition state Varuna's tracer flags (§5.2). Failing to do so makes
// the copies drift — the bug class the tracer exists to catch.
type OutputProjection struct {
	name       string
	Vocab, Dim int
	W          *Param

	out, dx buffer  // Forward's logits and Backward's input gradient
	x       *Matrix // the latest Forward's input, which Backward reads
	ctx     Ctx     // the latest Forward's
}

// NewOutputProjection ties the projection to the embedding weight by
// value: identical initialization, same parameter name, both Shared.
func NewOutputProjection(name string, emb *Embedding) *OutputProjection {
	emb.W.Shared = true
	w := &Param{
		Name:   emb.W.Name,
		Value:  append([]float64(nil), emb.W.Value...),
		Grad:   make([]float64, len(emb.W.Grad)),
		Shared: true,
	}
	return &OutputProjection{name: name, Vocab: emb.Vocab, Dim: emb.Dim, W: w}
}

// weight views W as a Vocab×Dim matrix.
func (o *OutputProjection) weight() *Matrix {
	return &Matrix{Rows: o.Vocab, Cols: o.Dim, Data: o.W.Value}
}

// Forward implements Layer.
func (o *OutputProjection) Forward(x *Matrix) (*Matrix, Ctx) {
	y := o.out.shape(x.Rows, o.Vocab)
	matMulABTInto(y, x, o.weight())
	o.x, o.ctx = x, newCtx()
	return y, o.ctx
}

// Backward implements Layer.
func (o *OutputProjection) Backward(ctx Ctx, dy *Matrix) *Matrix {
	checkCtx(ctx, o.ctx, o.name)
	s := getScratch()
	dW := s.dW.shape(o.Vocab, o.Dim)
	matMulATBInto(dW, dy, o.x)
	grad := o.W.Grad[:len(dW.Data)]
	for i, v := range dW.Data {
		grad[i] += v
	}
	putScratch(s)
	dx := o.dx.shape(dy.Rows, o.Dim)
	matMulInto(dx, dy, o.weight())
	return dx
}

// Params implements Layer.
func (o *OutputProjection) Params() []*Param { return []*Param{o.W} }
