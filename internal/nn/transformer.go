package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Block is one pre-norm transformer block: single-head causal
// self-attention and a GELU MLP, each with a residual connection. It
// is the repeated unit the cut-point machinery partitions (§5.1).
//
// A Block keeps its forward intermediates, its output and its input
// gradient in a workspace: an output is valid until the Block's next
// Forward, an input gradient until its next Backward (see Layer).
type Block struct {
	name   string
	Dim    int
	SeqLen int

	ln1, ln2       *LayerNorm
	wq, wk, wv, wo *Linear
	fc1, fc2       *Linear

	work *blockWork // the kept workspace; nil before the first Forward
	ctx  Ctx        // the latest Forward's
}

// NewBlock builds a transformer block of width dim over seqLen tokens.
func NewBlock(name string, dim, seqLen, mlpMult int, rng *rand.Rand) *Block {
	return &Block{
		name: name, Dim: dim, SeqLen: seqLen,
		ln1: NewLayerNorm(name+".ln1", dim),
		ln2: NewLayerNorm(name+".ln2", dim),
		wq:  NewLinear(name+".wq", dim, dim, rng),
		wk:  NewLinearNoBias(name+".wk", dim, dim, rng),
		wv:  NewLinear(name+".wv", dim, dim, rng),
		wo:  NewLinear(name+".wo", dim, dim, rng),
		fc1: NewLinear(name+".fc1", dim, dim*mlpMult, rng),
		fc2: NewLinear(name+".fc2", dim*mlpMult, dim, rng),
	}
}

// blockWork is a Block's workspace for one row count: every forward
// intermediate its Backward reads, the output and the input gradient.
type blockWork struct {
	rows       int
	n1, n2     *Matrix   // ln1 and ln2 outputs
	xh1, xh2   *Matrix   // their normalized inputs
	inv1, inv2 []float64 // their rows' inverse standard deviations
	q, k, v    *Matrix
	probs      []float64 // per example, SeqLen×SeqLen softmaxed scores (lower triangle)
	att        *Matrix   // attention output, before wo
	mid        *Matrix   // wo output plus the residual
	h, g       *Matrix   // fc1 output and its GELU
	th         *Matrix   // GELU's tanh term of each element of h
	y, dx      *Matrix   // Forward's output and Backward's input gradient
}

// workspace returns a workspace sized to a rows-row input. The Block
// keeps one workspace, allocated lazily: a call of its size reuses it
// and a call of another size replaces it.
func (b *Block) workspace(rows int) *blockWork {
	if w := b.work; w != nil && w.rows == rows {
		return w
	}
	hidden := b.fc1.Out
	w := &blockWork{
		rows: rows,
		n1:   NewMatrix(rows, b.Dim), n2: NewMatrix(rows, b.Dim),
		xh1: NewMatrix(rows, b.Dim), xh2: NewMatrix(rows, b.Dim),
		inv1: make([]float64, rows), inv2: make([]float64, rows),
		q: NewMatrix(rows, b.Dim), k: NewMatrix(rows, b.Dim), v: NewMatrix(rows, b.Dim),
		probs: make([]float64, rows*b.SeqLen),
		att:   NewMatrix(rows, b.Dim),
		mid:   NewMatrix(rows, b.Dim),
		h:     NewMatrix(rows, hidden), g: NewMatrix(rows, hidden),
		th: NewMatrix(rows, hidden),
		y:  NewMatrix(rows, b.Dim), dx: NewMatrix(rows, b.Dim),
	}
	b.work = w
	return w
}

// Forward implements Layer.
func (b *Block) Forward(x *Matrix) (*Matrix, Ctx) {
	if x.Rows%b.SeqLen != 0 {
		panic(fmt.Sprintf("nn: block input rows %d not a multiple of seq %d", x.Rows, b.SeqLen))
	}
	w := b.workspace(x.Rows)
	b.ctx = newCtx()

	// Attention sub-layer.
	b.ln1.forwardInto(w.n1, w.xh1, w.inv1, x)
	b.wq.forwardInto(w.q, w.n1)
	b.wk.forwardInto(w.k, w.n1)
	b.wv.forwardInto(w.v, w.n1)
	b.attend(w)
	b.wo.forwardInto(w.mid, w.att)
	AddInPlace(w.mid, x) // residual

	// MLP sub-layer.
	b.ln2.forwardInto(w.n2, w.xh2, w.inv2, w.mid)
	b.fc1.forwardInto(w.h, w.n2)
	geluKeepInto(w.g, w.th, w.h)
	b.fc2.forwardInto(w.y, w.g)
	AddInPlace(w.y, w.mid) // residual
	return w.y, b.ctx
}

// attend fills w.probs with the causal softmax of q·kᵀ/√Dim and w.att
// with the probability-weighted sum of v, example by example.
func (b *Block) attend(w *blockWork) {
	t := b.SeqLen
	scale := 1 / math.Sqrt(float64(b.Dim))
	clear(w.att.Data)
	for off := 0; off < w.rows; off += t {
		probs := w.probs[off*t : (off+t)*t]
		for i := 0; i < t; i++ {
			qi := w.q.Row(off + i)
			// Causal: attend to positions ≤ i; softmax over them.
			a := probs[i*t : i*t+i+1]
			maxv := math.Inf(-1)
			for j := range a {
				kj := w.k.Row(off + j)[:len(qi)]
				var s float64
				for d, qv := range qi {
					s += qv * kj[d]
				}
				s *= scale
				a[j] = s
				if s > maxv {
					maxv = s
				}
			}
			var sum float64
			for j, s := range a {
				v := math.Exp(s - maxv)
				a[j] = v
				sum += v
			}
			for j := range a {
				a[j] /= sum
			}
			out := w.att.Row(off + i)
			for j, p := range a {
				vj := w.v.Row(off + j)[:len(out)]
				for d, vv := range vj {
					out[d] += p * vv
				}
			}
		}
	}
}

// Backward implements Layer.
func (b *Block) Backward(ctx Ctx, dy *Matrix) *Matrix {
	checkCtx(ctx, b.ctx, b.name)
	w := b.work
	rows := w.rows
	s := getScratch()

	// MLP sub-layer backward (residual: dy flows to both branches).
	dh := s.hidden.shape(rows, b.fc1.Out)
	b.fc2.backwardInto(dh, w.g, dy, s) // dg
	geluKeptBackwardInto(dh, w.h, w.th, dh)
	dmid := s.mid.shape(rows, b.Dim)
	b.fc1.backwardInto(dmid, w.n2, dh, s) // dn2
	b.ln2.backwardInto(dmid, w.xh2, w.inv2, dmid, s)
	AddInPlace(dmid, dy)

	// Attention sub-layer backward.
	dctx := s.ctx.shape(rows, b.Dim)
	b.wo.backwardInto(dctx, w.att, dmid, s)
	dq, dk, dv := s.q.zeroed(rows, b.Dim), s.k.zeroed(rows, b.Dim), s.v.zeroed(rows, b.Dim)
	b.attendBackward(w, dctx, dq, dk, dv, s.row.shape(1, b.SeqLen).Data)
	// dctx is spent: it takes each key and value input gradient in
	// turn before it is added into dn.
	dn := s.n.shape(rows, b.Dim)
	b.wq.backwardInto(dn, w.n1, dq, s)
	b.wk.backwardInto(dctx, w.n1, dk, s)
	AddInPlace(dn, dctx)
	b.wv.backwardInto(dctx, w.n1, dv, s)
	AddInPlace(dn, dctx)
	b.ln1.backwardInto(w.dx, w.xh1, w.inv1, dn, s)
	AddInPlace(w.dx, dmid)
	putScratch(s)
	return w.dx
}

// attendBackward accumulates the q, k and v gradients of attend for
// the attention-output gradient dctx into the zeroed dq, dk and dv;
// daRow is scratch for one row of score gradients.
func (b *Block) attendBackward(w *blockWork, dctx, dq, dk, dv *Matrix, daRow []float64) {
	t := b.SeqLen
	scale := 1 / math.Sqrt(float64(b.Dim))
	for off := 0; off < w.rows; off += t {
		probs := w.probs[off*t : (off+t)*t]
		for i := 0; i < t; i++ {
			dout := dctx.Row(off + i)
			a := probs[i*t : i*t+i+1]
			// dV and dA.
			da := daRow[:len(a)]
			for j, p := range a {
				vj := w.v.Row(off + j)[:len(dout)]
				dvj := dv.Row(off + j)[:len(dout)]
				var s float64
				for d, g := range dout {
					dvj[d] += p * g
					s += g * vj[d]
				}
				da[j] = s
			}
			// Softmax backward: ds = a ⊙ (da − Σ a·da).
			var dot float64
			for j, p := range a {
				dot += p * da[j]
			}
			qi := w.q.Row(off + i)
			dqi := dq.Row(off + i)[:len(qi)]
			for j, p := range a {
				ds := p * (da[j] - dot) * scale
				kj := w.k.Row(off + j)[:len(qi)]
				dkj := dk.Row(off + j)[:len(qi)]
				for d, qv := range qi {
					dqi[d] += ds * kj[d]
					dkj[d] += ds * qv
				}
			}
		}
	}
}

// Params implements Layer.
func (b *Block) Params() []*Param {
	return slices.Concat(b.ln1.Params(), b.wq.Params(), b.wk.Params(), b.wv.Params(),
		b.wo.Params(), b.ln2.Params(), b.fc1.Params(), b.fc2.Params())
}

// ---- Loss ----------------------------------------------------------

// SoftmaxCrossEntropy adds the cross-entropy of each row of logits
// [B·T, V] against targets [B, T] (token ids) to loss, in row order,
// and returns the total: the mean is the total over the rows summed. So a
// batch summed chunk by chunk, each call carrying the last one's total,
// gives the bits of one call over the whole batch. Into a non-nil dl,
// shaped like logits, it writes the logits gradient scaled for a sum
// over totalExamples examples (so micro-batch gradients accumulate to
// exactly the full-batch gradient); a nil dl computes the loss only.
func SoftmaxCrossEntropy(loss float64, logits, targets, dl *Matrix, totalExamples int) float64 {
	bt := logits.Rows
	t := targets.Cols
	if targets.Rows*t != bt {
		panic(fmt.Sprintf("nn: loss shape mismatch: %d logits rows vs %d targets", bt, targets.Rows*t))
	}
	if dl != nil {
		checkOut(dl, bt, logits.Cols)
	}
	denom := float64(totalExamples * t)
	for r := 0; r < bt; r++ {
		row := logits.Row(r)
		target := int(targets.At(r/t, r%t))
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		// drow keeps each exp(v − max) until the sum is known.
		var drow []float64
		if dl != nil {
			drow = dl.Row(r)[:len(row)]
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			if drow != nil {
				drow[j] = e
			}
			sum += e
		}
		logZ := math.Log(sum) + maxv
		loss += logZ - row[target]
		if drow == nil {
			continue
		}
		for j, e := range drow {
			p := e / sum
			drow[j] = p / denom
		}
		drow[target] -= 1 / denom
	}
	return loss
}

// ---- Model builder --------------------------------------------------

// GPTConfig shapes a miniature GPT.
type GPTConfig struct {
	Vocab, Dim, SeqLen, Layers, MLPMult int
	Seed                                int64
}

// BuildGPT constructs the layer sequence [Embedding, Block×L,
// OutputProjection(tied)] deterministically from the seed.
func BuildGPT(cfg GPTConfig) []Layer {
	if cfg.MLPMult == 0 {
		cfg.MLPMult = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	emb := NewEmbedding("embedding", cfg.Vocab, cfg.Dim, cfg.SeqLen, rng)
	layers := []Layer{emb}
	for i := 0; i < cfg.Layers; i++ {
		layers = append(layers, NewBlock(fmt.Sprintf("block%d", i), cfg.Dim, cfg.SeqLen, cfg.MLPMult, rng))
	}
	layers = append(layers, NewOutputProjection("lm_head", emb))
	return layers
}

// ---- Adam ----------------------------------------------------------

// Adam is the standard Adam optimizer over a parameter set, with state
// held per parameter (checkpointable).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	step                  int
	m, v                  map[*Param][]float64
}

// NewAdam builds an optimizer with the usual defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64)}
}

// Step applies one update to params from their accumulated gradients,
// then clears the gradients.
func (a *Adam) Step(params []*Param) {
	a.step++
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.Value))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(p.Value))
			a.v[p] = v
		}
		for i, g := range p.Grad {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			p.Value[i] -= a.LR * (m[i] / b1c) / (math.Sqrt(v[i]/b2c) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// State exposes the Adam moments of p (allocating if absent), for
// checkpointing.
func (a *Adam) State(p *Param) (m, v []float64) {
	if _, ok := a.m[p]; !ok {
		a.m[p] = make([]float64, len(p.Value))
		a.v[p] = make([]float64, len(p.Value))
	}
	return a.m[p], a.v[p]
}

// SetStep restores the step counter (checkpoint resume).
func (a *Adam) SetStep(s int) { a.step = s }
