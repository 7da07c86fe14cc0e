package checkpoint

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func layer(i int, seed float64) LayerState {
	n := 8
	ls := LayerState{Layer: i, Params: make([]float64, n), M: make([]float64, n), V: make([]float64, n)}
	for j := range ls.Params {
		ls.Params[j] = seed + float64(j)
		ls.M[j] = seed * 0.1
		ls.V[j] = seed * 0.01
	}
	return ls
}

func testStoreRoundTrip(t *testing.T, s Store) {
	t.Helper()
	for i := 0; i < 4; i++ {
		if err := s.PutLayer(7, layer(i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutManifest(Manifest{Step: 7, Layers: []int{0, 1, 2, 3}, NumLayers: 4}); err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.Latest()
	if err != nil || !ok {
		t.Fatalf("Latest: %v ok=%v", err, ok)
	}
	if m.Step != 7 || len(m.Layers) != 4 {
		t.Fatalf("manifest %+v", m)
	}
	got, err := s.GetLayer(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !equalState(got, layer(2, 2)) {
		t.Fatal("layer 2 corrupted on round trip")
	}
	if _, err := s.GetLayer(7, 99); err == nil {
		t.Fatal("missing layer must error")
	}
}

func TestMemStoreRoundTrip(t *testing.T) { testStoreRoundTrip(t, NewMemStore()) }

func TestLayerStateBytes(t *testing.T) {
	ls := layer(0, 1) // 8 params + 8 m + 8 v, one float64 each
	if got := ls.Bytes(); got != 24*8 {
		t.Fatalf("Bytes() = %d, want %d", got, 24*8)
	}
	if got := (LayerState{}).Bytes(); got != 0 {
		t.Fatalf("empty layer Bytes() = %d", got)
	}
}

// testByteAccounting pins the per-layer byte plumbing the restart cost
// model prices from: manifests carry per-layer sizes sorted with their
// layers.
func testByteAccounting(t *testing.T, s Store) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if err := s.PutLayer(1, layer(i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Manifest byte entries must align with layers; deliberately out of
	// order to check co-sorting.
	per := layer(0, 0).Bytes()
	err := s.PutManifest(Manifest{
		Step: 1, Layers: []int{2, 0, 1}, LayerBytes: []int64{per + 2, per, per + 1}, NumLayers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.Latest()
	if err != nil || !ok {
		t.Fatalf("Latest: %v ok=%v", err, ok)
	}
	for i, l := range m.Layers {
		if l != i {
			t.Fatalf("layers not sorted: %v", m.Layers)
		}
		if m.LayerBytes[i] != per+int64(i) {
			t.Fatalf("layer %d bytes %d did not follow its layer through the sort (%v)", l, m.LayerBytes[i], m.LayerBytes)
		}
	}
	if got := m.TotalBytes(); got != 3*per+3 {
		t.Fatalf("TotalBytes = %d, want %d", got, 3*per+3)
	}
	if got := m.BytesFor(1); got != per+1 {
		t.Fatalf("BytesFor(1) = %d, want %d", got, per+1)
	}
	if got := m.BytesFor(9); got != 0 {
		t.Fatalf("BytesFor(missing) = %d, want 0", got)
	}
	// A mismatched byte vector must be rejected.
	err = s.PutManifest(Manifest{Step: 1, Layers: []int{0, 1}, LayerBytes: []int64{per}, NumLayers: 3})
	if err == nil {
		t.Fatal("manifest with misaligned LayerBytes must fail")
	}
}

func TestMemStoreByteAccounting(t *testing.T) { testByteAccounting(t, NewMemStore()) }

// TestFileStoreByteAccounting also pins the written-byte count
// varuna-ckpt reports.
func TestFileStoreByteAccounting(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if fs.BytesWritten() != 0 {
		t.Fatalf("fresh store reports %d bytes written", fs.BytesWritten())
	}
	testByteAccounting(t, fs)
	if got, want := fs.BytesWritten(), 3*layer(0, 0).Bytes(); got != want {
		t.Fatalf("BytesWritten = %d, want %d", got, want)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStoreRoundTrip(t, fs)
}

func TestMemStoreManifestRequiresLayers(t *testing.T) {
	s := NewMemStore()
	if err := s.PutManifest(Manifest{Step: 1, Layers: []int{0}}); err == nil {
		t.Fatal("manifest over missing layers must fail")
	}
}

func TestMemStoreIsolation(t *testing.T) {
	// Mutating a loaded layer must not corrupt the store.
	s := NewMemStore()
	orig := layer(0, 1)
	if err := s.PutLayer(1, orig); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetLayer(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got.Params[0] = 999
	again, err := s.GetLayer(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Params[0] == 999 {
		t.Fatal("store aliased caller memory")
	}
}

// coverage verifies that the union of ShardLayers assignments covers
// every layer exactly once.
func coverage(stageLayers []int, d int) error {
	seen := make(map[int]int)
	for r := 0; r < d; r++ {
		for _, l := range ShardLayers(stageLayers, d, r) {
			seen[l]++
		}
	}
	for _, l := range stageLayers {
		if seen[l] != 1 {
			return fmt.Errorf("checkpoint: layer %d written %d times", l, seen[l])
		}
	}
	return nil
}

func TestShardCoverage(t *testing.T) {
	layers := []int{3, 4, 5, 6, 7, 8, 9}
	for d := 1; d <= 8; d++ {
		if err := coverage(layers, d); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
	if ShardLayers(layers, 0, 0) != nil {
		t.Fatal("d=0 must yield nothing")
	}
	if ShardLayers(layers, 2, 5) != nil {
		t.Fatal("replica out of range must yield nothing")
	}
}

func TestShardCoverageProperty(t *testing.T) {
	if err := quick.Check(func(n, d uint8) bool {
		layers := make([]int, int(n%40)+1)
		for i := range layers {
			layers[i] = i * 3
		}
		return coverage(layers, int(d%8)+1) == nil
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestShardBalance(t *testing.T) {
	layers := make([]int, 24)
	for i := range layers {
		layers[i] = i
	}
	for _, d := range []int{2, 3, 4, 6} {
		for r := 0; r < d; r++ {
			got := len(ShardLayers(layers, d, r))
			if got != 24/d {
				t.Fatalf("d=%d r=%d: shard size %d, want %d", d, r, got, 24/d)
			}
		}
	}
}

func TestResumeAcrossDifferentDepth(t *testing.T) {
	// §4.5: per-layer checkpoints let the morpher resume under a
	// different layers-to-stages mapping. Write as 4 stages, read all
	// layers back as 2 stages.
	s := NewMemStore()
	const numLayers = 12
	var all []int
	for l := 0; l < numLayers; l++ {
		if err := s.PutLayer(3, layer(l, float64(l)*1.5)); err != nil {
			t.Fatal(err)
		}
		all = append(all, l)
	}
	if err := s.PutManifest(Manifest{Step: 3, Layers: all, NumLayers: numLayers}); err != nil {
		t.Fatal(err)
	}
	step, state, err := Resume(s)
	if err != nil {
		t.Fatal(err)
	}
	if step != 3 || len(state) != numLayers {
		t.Fatalf("resume step=%d layers=%d", step, len(state))
	}
	for l := 0; l < numLayers; l++ {
		if !equalState(state[l], layer(l, float64(l)*1.5)) {
			t.Fatalf("layer %d state mismatch after resume", l)
		}
	}
}

func TestResumeFreshStart(t *testing.T) {
	step, state, err := Resume(NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if step != 0 || state != nil {
		t.Fatal("empty store must resume fresh")
	}
}

func TestFileStoreCrashSafety(t *testing.T) {
	// A newer step's layers without a manifest must not change Latest.
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStoreRoundTrip(t, fs)
	if err := fs.PutLayer(8, layer(0, 9)); err != nil {
		t.Fatal(err)
	}
	m, ok, err := fs.Latest()
	if err != nil || !ok || m.Step != 7 {
		t.Fatalf("Latest after partial write: %+v ok=%v err=%v", m, ok, err)
	}
}

// equalState reports whether two layer states match exactly, NaNs
// included.
func equalState(a, b LayerState) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] && !(math.IsNaN(x[i]) && math.IsNaN(y[i])) {
				return false
			}
		}
		return true
	}
	return a.Layer == b.Layer && eq(a.Params, b.Params) && eq(a.M, b.M) && eq(a.V, b.V)
}

func TestEqualState(t *testing.T) {
	a := layer(1, 2)
	if !equalState(a, a) {
		t.Fatal("self equality")
	}
	b := layer(1, 2)
	b.Params[0] = 42
	if equalState(a, b) {
		t.Fatal("different params must differ")
	}
	c := layer(2, 2)
	if equalState(a, c) {
		t.Fatal("different layer index must differ")
	}
	n1 := LayerState{Layer: 0, Params: []float64{math.NaN()}}
	n2 := LayerState{Layer: 0, Params: []float64{math.NaN()}}
	if !equalState(n1, n2) {
		t.Fatal("NaN state must compare equal to itself")
	}
}
