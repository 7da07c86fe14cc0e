package engine

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/nn"
)

// Save writes a consistent checkpoint at the current mini-batch
// boundary: one checkpoint.LayerState per model layer, holding the
// concatenated parameter values and Adam moments. Writing is sharded
// the way §4.5 describes — replica r persists every D-th of its
// stage's layers — which exercises the sharding assignment even though
// replicas hold identical state in sync mode. Only a Sync engine saves
// (see exactResume).
func (e *Engine) Save(store checkpoint.Store) error {
	if err := exactResume(e.cfg.Mode); err != nil {
		return err
	}
	numLayers := e.cfg.GPT.Layers + 2
	var manifest []int
	var layerBytes []int64
	for s := 0; s < e.cfg.P; s++ {
		stageLayers := e.stageLayerIndices(s)
		for r := 0; r < e.cfg.D; r++ {
			for _, l := range checkpoint.ShardLayers(stageLayers, e.cfg.D, r) {
				ls := e.layerState(r, s, l)
				if err := store.PutLayer(e.step, ls); err != nil {
					return err
				}
				manifest = append(manifest, l)
				layerBytes = append(layerBytes, ls.Bytes())
			}
		}
	}
	if len(manifest) != numLayers {
		return fmt.Errorf("engine: checkpoint covered %d of %d layers", len(manifest), numLayers)
	}
	return store.PutManifest(checkpoint.Manifest{
		Step: e.step, Layers: manifest, LayerBytes: layerBytes, NumLayers: numLayers,
	})
}

// stageLayerIndices lists the global layer indices owned by stage s.
func (e *Engine) stageLayerIndices(s int) []int {
	var out []int
	for l, st := range e.layerStages {
		if st == s {
			out = append(out, l)
		}
	}
	return out
}

// layerAt returns replica r's layer object for global layer l and its
// owning stage.
func (e *Engine) layerAt(r, l int) (nn.Layer, *stage) {
	s := e.layerStages[l]
	st := e.replicas[r][s]
	// Position of l within the stage.
	pos := 0
	for ll := 0; ll < l; ll++ {
		if e.layerStages[ll] == s {
			pos++
		}
	}
	return st.layers[pos], st
}

// layerState snapshots one layer from replica r, stage s.
func (e *Engine) layerState(r, s, l int) checkpoint.LayerState {
	layer, st := e.layerAt(r, l)
	ls := checkpoint.LayerState{Layer: l}
	for _, p := range layer.Params() {
		m, v := st.opt.State(p)
		ls.Params = append(ls.Params, p.Value...)
		ls.M = append(ls.M, m...)
		ls.V = append(ls.V, v...)
	}
	return ls
}

// exactResume refuses a mode whose state a checkpoint does not hold.
// A checkpoint holds the weights and Adam moments, and Resume sets each
// optimizer's step to the mini-batch count, which is exact for Sync
// alone: TwoBW's parked gradients are not saved and its optimizers run
// one step behind the mini-batch count, and StalePerMicro steps Adam
// once per micro-batch.
func exactResume(m Mode) error {
	if m != Sync {
		return fmt.Errorf("engine: a %v engine cannot be checkpointed and resumed exactly; only Sync can", m)
	}
	return nil
}

// Resume builds a fresh engine under cfg (possibly a different P×D —
// the §4.5 morphing resume) and loads the latest checkpoint from
// store. With no checkpoint present it is equivalent to New. Only a
// Sync engine resumes (see exactResume).
func Resume(cfg Config, store checkpoint.Store) (*Engine, error) {
	if err := exactResume(cfg.Mode); err != nil {
		return nil, err
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	step, state, err := checkpoint.Resume(store)
	if err != nil {
		return nil, err
	}
	if state == nil {
		return e, nil
	}
	if len(state) != cfg.GPT.Layers+2 {
		return nil, fmt.Errorf("engine: checkpoint has %d layers, model needs %d", len(state), cfg.GPT.Layers+2)
	}
	for r := 0; r < cfg.D; r++ {
		for l, ls := range state {
			if err := e.loadLayer(r, l, ls); err != nil {
				return nil, err
			}
		}
	}
	e.step = step
	for _, stages := range e.replicas {
		for _, st := range stages {
			st.opt.SetStep(step)
		}
	}
	return e, nil
}

// loadLayer restores one layer of replica r from a snapshot.
func (e *Engine) loadLayer(r, l int, ls checkpoint.LayerState) error {
	layer, st := e.layerAt(r, l)
	off := 0
	for _, p := range layer.Params() {
		n := len(p.Value)
		if off+n > len(ls.Params) {
			return fmt.Errorf("engine: layer %d snapshot too small", l)
		}
		copy(p.Value, ls.Params[off:off+n])
		m, v := st.opt.State(p)
		copy(m, ls.M[off:off+n])
		copy(v, ls.V[off:off+n])
		off += n
	}
	if off != len(ls.Params) {
		return fmt.Errorf("engine: layer %d snapshot has %d extra values", l, len(ls.Params)-off)
	}
	return nil
}

// Fingerprint returns a deep copy of replica 0's parameters keyed by
// "layerIdx/paramName", for state-equality assertions in tests.
func (e *Engine) Fingerprint() map[string][]float64 {
	out := make(map[string][]float64)
	for l := range e.layerStages {
		layer, _ := e.layerAt(0, l)
		for _, p := range layer.Params() {
			key := fmt.Sprintf("%d/%s", l, p.Name)
			out[key] = append([]float64(nil), p.Value...)
		}
	}
	return out
}
