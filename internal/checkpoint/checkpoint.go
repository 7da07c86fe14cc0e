// Package checkpoint implements Varuna's continuous checkpointing
// (§4.5): model state is written per layer, sharded across data-parallel
// replicas (replicas hold identical state, so each writes a disjoint
// slice of the layers), at mini-batch boundaries for cross-stage
// consistency. Because every layer is an independent object, a job can
// resume under a *different* pipeline depth: the new stage→layer
// mapping just loads whichever layers it now owns.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// LayerState is one layer's training state: parameters and optimizer
// moments, stored as float64 for exactness.
type LayerState struct {
	// Layer is the model-wide layer index.
	Layer int
	// Params, M, V are parameter values and Adam moments.
	Params, M, V []float64
}

// Bytes reports the serialized size of the layer's state: every value
// is stored as a float64. This is the per-layer unit the restart cost
// model prices flushes and redistribution in.
func (ls LayerState) Bytes() int64 {
	return 8 * int64(len(ls.Params)+len(ls.M)+len(ls.V))
}

// Manifest records a consistent checkpoint: which mini-batch it
// reflects and which layers it contains.
type Manifest struct {
	// Step is the last completed mini-batch.
	Step int
	// Layers lists the layer indices present.
	Layers []int
	// LayerBytes, when present, is aligned with Layers and records each
	// layer's serialized state size — the per-layer byte accounting
	// restart.NewModelFromManifest prices checkpoint flushes and
	// post-morph state redistribution from when a real checkpoint
	// exists (the manager's simulated timeline derives the same sizes
	// analytically from the model spec). Older manifests omit it.
	LayerBytes []int64 `json:"LayerBytes,omitempty"`
	// NumLayers is the model's total layer count.
	NumLayers int
}

// TotalBytes sums the per-layer state sizes; 0 when the manifest
// predates byte accounting.
func (m Manifest) TotalBytes() int64 {
	var n int64
	for _, b := range m.LayerBytes {
		n += b
	}
	return n
}

// BytesFor reports the recorded state size of one layer, or 0 when the
// manifest has no byte accounting for it.
func (m Manifest) BytesFor(layer int) int64 {
	for i, l := range m.Layers {
		if l == layer && i < len(m.LayerBytes) {
			return m.LayerBytes[i]
		}
	}
	return 0
}

// Store is a checkpoint destination: what engine.Save writes and
// engine.Resume reads. MemStore keeps checkpoints in memory (the
// training experiments, varuna-train, the convergence example);
// FileStore writes them to disk (varuna-ckpt) and alone counts the
// bytes it persisted. Implementations must be usable from multiple
// shards writing disjoint layers.
type Store interface {
	// PutLayer persists one layer's state for the given step.
	PutLayer(step int, ls LayerState) error
	// GetLayer loads one layer's state for the given step.
	GetLayer(step, layer int) (LayerState, error)
	// PutManifest marks a step complete.
	PutManifest(m Manifest) error
	// Latest returns the newest complete manifest, or ok=false.
	Latest() (Manifest, bool, error)
}

// normalizeManifest validates the byte accounting and sorts the
// (layer, bytes) pairs by layer index so manifests compare and
// serialize deterministically.
func normalizeManifest(m Manifest) (Manifest, error) {
	if len(m.LayerBytes) != 0 && len(m.LayerBytes) != len(m.Layers) {
		return Manifest{}, fmt.Errorf("checkpoint: manifest has %d layers but %d byte entries",
			len(m.Layers), len(m.LayerBytes))
	}
	mm := m
	mm.Layers = append([]int(nil), m.Layers...)
	mm.LayerBytes = append([]int64(nil), m.LayerBytes...)
	idx := make([]int, len(mm.Layers))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return mm.Layers[idx[a]] < mm.Layers[idx[b]] })
	layers := make([]int, len(idx))
	for i, j := range idx {
		layers[i] = mm.Layers[j]
	}
	mm.Layers = layers
	if len(mm.LayerBytes) != 0 {
		bytes := make([]int64, len(idx))
		for i, j := range idx {
			bytes[i] = mm.LayerBytes[j]
		}
		mm.LayerBytes = bytes
	}
	return mm, nil
}

// MemStore is an in-memory Store.
type MemStore struct {
	layers   map[int]map[int]LayerState
	manifest *Manifest
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{layers: make(map[int]map[int]LayerState)}
}

// PutLayer implements Store.
func (s *MemStore) PutLayer(step int, ls LayerState) error {
	if s.layers[step] == nil {
		s.layers[step] = make(map[int]LayerState)
	}
	s.layers[step][ls.Layer] = cloneLayer(ls)
	return nil
}

// GetLayer implements Store.
func (s *MemStore) GetLayer(step, layer int) (LayerState, error) {
	ls, ok := s.layers[step][layer]
	if !ok {
		return LayerState{}, &ErrShardUnavailable{Step: step, Layer: layer}
	}
	return cloneLayer(ls), nil
}

// PutManifest implements Store.
func (s *MemStore) PutManifest(m Manifest) error {
	for _, l := range m.Layers {
		if _, ok := s.layers[m.Step][l]; !ok {
			return fmt.Errorf("checkpoint: manifest for step %d references missing layer %d", m.Step, l)
		}
	}
	mm, err := normalizeManifest(m)
	if err != nil {
		return err
	}
	s.manifest = &mm
	return nil
}

// Latest implements Store.
func (s *MemStore) Latest() (Manifest, bool, error) {
	if s.manifest == nil {
		return Manifest{}, false, nil
	}
	return *s.manifest, true, nil
}

func cloneLayer(ls LayerState) LayerState {
	return LayerState{
		Layer:  ls.Layer,
		Params: append([]float64(nil), ls.Params...),
		M:      append([]float64(nil), ls.M...),
		V:      append([]float64(nil), ls.V...),
	}
}

// ShardLayers assigns the layers of one pipeline stage to its D
// replicas for checkpoint writing: replica r of a stage writes every
// D-th layer, so the write bandwidth scales with D and no layer is
// written twice (§4.5: "we shard the checkpointing across replicas").
func ShardLayers(stageLayers []int, d, replica int) []int {
	if d < 1 || replica < 0 || replica >= d {
		return nil
	}
	var out []int
	for i, l := range stageLayers {
		if i%d == replica {
			out = append(out, l)
		}
	}
	return out
}

// FileStore persists layers as little-endian binary blobs under a
// directory, mirroring Varuna's local-SSD checkpoint path. The
// manifest is a JSON file written last (write-then-rename) so a crash
// mid-checkpoint leaves the previous manifest intact.
type FileStore struct {
	Dir string

	written int64
}

// NewFileStore creates the directory if needed.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &FileStore{Dir: dir}, nil
}

func (s *FileStore) layerPath(step, layer int) string {
	return filepath.Join(s.Dir, fmt.Sprintf("step%08d-layer%05d.bin", step, layer))
}

// PutLayer implements Store.
func (s *FileStore) PutLayer(step int, ls LayerState) error {
	f, err := os.CreateTemp(s.Dir, "layer-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	if err := writeLayer(f, ls); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, s.layerPath(step, ls.Layer)); err != nil {
		return err
	}
	s.written += ls.Bytes()
	return nil
}

// BytesWritten reports the cumulative layer-state bytes this store has
// persisted.
func (s *FileStore) BytesWritten() int64 { return s.written }

func writeLayer(f *os.File, ls LayerState) error {
	hdr := []int64{int64(ls.Layer), int64(len(ls.Params)), int64(len(ls.M)), int64(len(ls.V))}
	if err := binary.Write(f, binary.LittleEndian, hdr); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, arr := range [][]float64{ls.Params, ls.M, ls.V} {
		if err := binary.Write(f, binary.LittleEndian, arr); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// GetLayer implements Store.
func (s *FileStore) GetLayer(step, layer int) (LayerState, error) {
	f, err := os.Open(s.layerPath(step, layer))
	if os.IsNotExist(err) {
		return LayerState{}, &ErrShardUnavailable{Step: step, Layer: layer}
	}
	if err != nil {
		return LayerState{}, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	var hdr [4]int64
	if err := binary.Read(f, binary.LittleEndian, &hdr); err != nil {
		return LayerState{}, fmt.Errorf("checkpoint: %w", err)
	}
	ls := LayerState{
		Layer:  int(hdr[0]),
		Params: make([]float64, hdr[1]),
		M:      make([]float64, hdr[2]),
		V:      make([]float64, hdr[3]),
	}
	for _, arr := range [][]float64{ls.Params, ls.M, ls.V} {
		if err := binary.Read(f, binary.LittleEndian, arr); err != nil {
			return LayerState{}, fmt.Errorf("checkpoint: %w", err)
		}
	}
	return ls, nil
}

func (s *FileStore) manifestPath() string { return filepath.Join(s.Dir, "manifest.json") }

// PutManifest implements Store.
func (s *FileStore) PutManifest(m Manifest) error {
	mm, err := normalizeManifest(m)
	if err != nil {
		return err
	}
	data, err := json.Marshal(mm)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := s.manifestPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return os.Rename(tmp, s.manifestPath())
}

// Latest implements Store.
func (s *FileStore) Latest() (Manifest, bool, error) {
	data, err := os.ReadFile(s.manifestPath())
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, fmt.Errorf("checkpoint: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("checkpoint: %w", err)
	}
	return m, true, nil
}

// Resume loads the full model state (all layers) from the latest
// manifest, regardless of the pipeline mapping that wrote it. The
// caller redistributes layers to its new stages.
func Resume(s Store) (int, map[int]LayerState, error) {
	m, ok, err := s.Latest()
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return 0, nil, nil // fresh start
	}
	out := make(map[int]LayerState, len(m.Layers))
	for _, l := range m.Layers {
		ls, err := s.GetLayer(m.Step, l)
		if err != nil {
			return 0, nil, err
		}
		out[l] = ls
	}
	return m.Step, out, nil
}
