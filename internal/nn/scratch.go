package nn

import "sync"

// buffer is a reusable matrix whose backing array only grows.
type buffer struct{ m Matrix }

// shape returns the buffer as a rows×cols matrix holding whatever its
// last user left there.
func (b *buffer) shape(rows, cols int) *Matrix {
	n := rows * cols
	if cap(b.m.Data) < n {
		b.m.Data = make([]float64, n)
	}
	b.m.Rows, b.m.Cols, b.m.Data = rows, cols, b.m.Data[:n]
	return &b.m
}

// zeroed is shape with every element set to +0.
func (b *buffer) zeroed(rows, cols int) *Matrix {
	m := b.shape(rows, cols)
	clear(m.Data)
	return m
}

// scratch holds the temporaries of one Backward call. No Backward
// keeps them after it returns, so one package-level pool serves every
// layer and every pipeline-stage goroutine, and about as many sets
// stay allocated as Backwards run at once.
type scratch struct {
	// dW is a weight gradient before it is added into the parameter's
	// accumulator; row is one row of LayerNorm's dxh or attention's da.
	dW, row buffer
	// A Block's activation gradients: dg, then dh in place (hidden);
	// dn2, then dmid in place (mid); dctx (ctx); dq, dk, dv; dn.
	hidden, mid, ctx, q, k, v, n buffer
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// transposePool holds the bᵀ copies matMulABTInto hands the assembly
// kernel, one per call in flight.
var transposePool = sync.Pool{New: func() any { return new(buffer) }}
