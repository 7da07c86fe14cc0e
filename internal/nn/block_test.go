package nn

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// The layer contract: a context and an output are valid until the
// layer's next Forward, an input gradient until its next Backward, and
// a Block's one workspace is sized to the latest call.

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want it to mention %q", r, want)
		}
	}()
	f()
}

// TestLayersRefuseStaleCtx checks that each pipeline layer's Backward
// takes only the context of its latest Forward, and panics, naming the
// layer, on a context a later Forward replaced, another layer's
// context or the zero Ctx.
func TestLayersRefuseStaleCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ids := func(rows int) *Matrix {
		m := NewMatrix(rows, 4)
		for i := range m.Data {
			m.Data[i] = float64(rng.Intn(11))
		}
		return m
	}
	emb := NewEmbedding("emb3", 11, 8, 4, rng)
	// Each layer has a twin of its type, an input and an output
	// gradient, and the same at another row count.
	cases := []struct {
		name               string
		l, twin            Layer
		x, dy, xBig, dyBig *Matrix
	}{
		{"emb3", emb, NewEmbedding("emb4", 11, 8, 4, rng),
			ids(2), randMatrix(rng, 8, 8), ids(3), randMatrix(rng, 12, 8)},
		{"blk7", NewBlock("blk7", 8, 4, 2, rng), NewBlock("blk8", 8, 4, 2, rng),
			randMatrix(rng, 8, 8), randMatrix(rng, 8, 8), randMatrix(rng, 12, 8), randMatrix(rng, 12, 8)},
		{"head5", NewOutputProjection("head5", emb), NewOutputProjection("head6", emb),
			randMatrix(rng, 8, 8), randMatrix(rng, 8, 11), randMatrix(rng, 12, 8), randMatrix(rng, 12, 11)},
	}
	for i, c := range cases {
		l := c.l
		t.Run(c.name, func(t *testing.T) {
			refused := func(ctx Ctx, dy *Matrix) {
				t.Helper()
				mustPanic(t, "nn: "+c.name+": Backward given a stale context", func() { l.Backward(ctx, dy) })
			}
			refused(Ctx{}, c.dy) // before any Forward
			_, stale := l.Forward(c.x)
			_, live := l.Forward(c.x)
			refused(stale, c.dy)
			l.Backward(live, c.dy)

			// A Forward of another row count, which replaces a Block's
			// workspace, replaces a context too, and so does the next
			// Forward after it.
			_, big := l.Forward(c.xBig)
			refused(live, c.dy)
			_, live = l.Forward(c.x)
			refused(big, c.dyBig)

			// Another layer's context, of its type or another, and the
			// zero Ctx after a Forward.
			_, twin := c.twin.Forward(c.x)
			next := cases[(i+1)%len(cases)]
			_, other := next.l.Forward(next.x)
			refused(twin, c.dy)
			refused(other, c.dy)
			refused(Ctx{}, c.dy)
			l.Backward(live, c.dy) // the latest context is still live
		})
	}
}

// TestBlockBuffersLiveUntilNextCall checks the Layer contract on a
// Block: its output keeps its bits through its own Backward, its input
// gradient through the next Forward, and the next call of each kind
// writes the same buffer again.
func TestBlockBuffersLiveUntilNextCall(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	b := NewBlock("blk", 8, 4, 2, rng)
	x1, x2 := randMatrix(rng, 8, 8), randMatrix(rng, 8, 8)
	unchanged := func(what string, got, want *Matrix) {
		t.Helper()
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s changed element %d", what, i)
			}
		}
	}
	y1, ctx := b.Forward(x1)
	keepY := clone(y1)
	dx1 := b.Backward(ctx, randMatrix(rng, 8, 8))
	unchanged("Backward: its Forward's output", y1, keepY)
	keepDX := clone(dx1)
	y2, ctx := b.Forward(x2)
	unchanged("Forward: the last Backward's input gradient", dx1, keepDX)
	dx2 := b.Backward(ctx, randMatrix(rng, 8, 8))
	if &y2.Data[0] != &y1.Data[0] || &dx2.Data[0] != &dx1.Data[0] {
		t.Fatal("a call of the same size must reuse the Block's buffers")
	}
	if &y2.Data[0] == &dx2.Data[0] {
		t.Fatal("the output and the input gradient must not share storage")
	}
}

// TestBlockWorkspaceSizedToCall checks the workspace policy: a Block
// keeps one workspace, a call of its size reuses it, and a call of
// another size, such as an evaluation batch, replaces it.
func TestBlockWorkspaceSizedToCall(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	small, big := randMatrix(rng, 8, 8), randMatrix(rng, 64, 8)
	b := NewBlock("blk", 8, 4, 2, rng)
	want := func(rows int, when string) *blockWork {
		t.Helper()
		w := b.work
		if w.rows != rows || cap(w.h.Data) != rows*16 || cap(w.q.Data) != rows*8 ||
			cap(w.probs) != rows*4 || cap(w.y.Data) != rows*8 || cap(w.dx.Data) != rows*8 {
			t.Fatalf("%s: the workspace has %d rows, cap(h) %d, want %d rows", when, w.rows, cap(w.h.Data), rows)
		}
		return w
	}

	_, ctx := b.Forward(small)
	first := want(8, "after an 8-row call")
	b.Backward(ctx, randMatrix(rng, 8, 8))
	_, ctx = b.Forward(small)
	if want(8, "after the next 8-row call") != first {
		t.Fatal("a call of the workspace's size must reuse it")
	}
	b.Backward(ctx, randMatrix(rng, 8, 8))

	_, ctx = b.Forward(big)
	want(64, "after a 64-row call")
	b.Backward(ctx, randMatrix(rng, 64, 8))
	_, ctx = b.Forward(small)
	want(8, "after an 8-row call again")
	b.Backward(ctx, randMatrix(rng, 8, 8))
}

// TestBlockReuseBitIdentical runs one Forward+Backward on a Block
// whose workspace and the shared scratch hold another input's values,
// and the same on a fresh Block: outputs, input gradients and
// parameter gradients agree to the bit.
func TestBlockReuseBitIdentical(t *testing.T) {
	mk := func() *Block { return NewBlock("blk", 8, 4, 2, rand.New(rand.NewSource(34))) }
	rng := rand.New(rand.NewSource(35))
	x, dy := randMatrix(rng, 8, 8), randMatrix(rng, 8, 8)

	used := mk()
	_, ctx := used.Forward(randMatrix(rng, 8, 8))
	used.Backward(ctx, randMatrix(rng, 8, 8))
	for _, p := range used.Params() {
		p.ZeroGrad()
	}
	fresh := mk()

	results := func(b *Block) []float64 {
		y, ctx := b.Forward(x)
		dx := b.Backward(ctx, dy)
		out := append(append([]float64(nil), y.Data...), dx.Data...)
		for _, p := range b.Params() {
			out = append(out, p.Grad...)
		}
		return out
	}
	got, want := results(used), results(fresh)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d: reused Block %v, fresh Block %v", i, got[i], want[i])
		}
	}
}

// TestBlocksShareScratchConcurrently runs Blocks of different row
// counts from several goroutines at once, all drawing Backward
// temporaries from the shared pool, and checks each against the same
// run made alone.
func TestBlocksShareScratchConcurrently(t *testing.T) {
	const workers = 4
	run := func(rows int) []float64 {
		b := NewBlock("blk", 8, 4, 2, rand.New(rand.NewSource(37)))
		rng := rand.New(rand.NewSource(int64(rows)))
		var out []float64
		for step := 0; step < 3; step++ {
			_, ctx := b.Forward(randMatrix(rng, rows, 8))
			out = append(out, b.Backward(ctx, randMatrix(rng, rows, 8)).Data...)
		}
		for _, p := range b.Params() {
			out = append(out, p.Grad...)
		}
		return out
	}
	want := make([][]float64, workers)
	for i := range want {
		want[i] = run(4 * (i + 1))
	}
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(4 * (i + 1))
		}()
	}
	wg.Wait()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("worker %d value %d: %v concurrently, %v alone", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestBlockStepAllocatesNothing checks that a Forward and Backward at
// a shape the Block already holds allocate nothing: the workspace is
// kept, the temporaries come from the scratch pool and the context is
// a plain value.
func TestBlockStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items on purpose")
	}
	rng := rand.New(rand.NewSource(38))
	b := NewBlock("blk", 24, 12, 2, rng)
	x, dy := randMatrix(rng, 96, 24), randMatrix(rng, 96, 24)
	step := func() {
		_, ctx := b.Forward(x)
		b.Backward(ctx, dy)
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("a Forward and Backward at a held shape allocate %v times, want 0", n)
	}
}

// BenchmarkBlockStep is one Block's Forward and Backward at the
// benchmark's training shape: micro-batch 8 × seq 12 rows, Dim 24,
// MLP 2×.
func BenchmarkBlockStep(bm *testing.B) {
	rng := rand.New(rand.NewSource(36))
	b := NewBlock("blk", 24, 12, 2, rng)
	x, dy := randMatrix(rng, 96, 24), randMatrix(rng, 96, 24)
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		_, ctx := b.Forward(x)
		b.Backward(ctx, dy)
	}
}
