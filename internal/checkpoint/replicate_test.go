package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hw"
)

func rlayer(idx int, vals ...float64) LayerState {
	return LayerState{Layer: idx, Params: vals, M: vals, V: vals}
}

// isShardUnavailable reports whether err wraps an ErrShardUnavailable.
func isShardUnavailable(err error) bool {
	var e *ErrShardUnavailable
	return errors.As(err, &e)
}

func TestErrShardUnavailableTyped(t *testing.T) {
	s := NewMemStore()
	_, err := s.GetLayer(3, 7)
	var shard *ErrShardUnavailable
	if !errors.As(err, &shard) {
		t.Fatalf("MemStore miss = %T, want *ErrShardUnavailable", err)
	}
	if shard.Step != 3 || shard.Layer != 7 {
		t.Fatalf("shard error carries step=%d layer=%d", shard.Step, shard.Layer)
	}
}

func TestFileStoreMissingShardTyped(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = fs.GetLayer(1, 0)
	if !isShardUnavailable(err) {
		t.Fatalf("FileStore miss = %v, want ErrShardUnavailable", err)
	}
}

func TestFileStoreCorruptShardIsNotUnavailable(t *testing.T) {
	// A truncated blob must surface as a generic (corrupt) error, not
	// as a missing shard a caller may resume around.
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.PutLayer(1, rlayer(0, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	path := fs.layerPath(1, 0)
	if err := os.WriteFile(path, []byte{0x01, 0x02}, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = fs.GetLayer(1, 0)
	if err == nil || isShardUnavailable(err) {
		t.Fatalf("corrupt shard error = %v, must be generic", err)
	}
}

func TestFileStorePartialWriteRecovery(t *testing.T) {
	// A crash mid-PutLayer leaves only a temp file; the named shard
	// path must not exist and the store must still report the shard
	// as unavailable, while a crash mid-manifest leaves the previous
	// manifest intact.
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.PutLayer(1, rlayer(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fs.PutManifest(Manifest{Step: 1, Layers: []int{0}, NumLayers: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write: an abandoned temp blob plus a torn
	// manifest temp file.
	if err := os.WriteFile(filepath.Join(dir, "layer-dead1"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fs.manifestPath()+".tmp", []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, ok, err := fs.Latest()
	if err != nil || !ok || m.Step != 1 {
		t.Fatalf("Latest after torn write = (%v, %v, %v), want step 1", m, ok, err)
	}
	if _, err := fs.GetLayer(2, 0); !isShardUnavailable(err) {
		t.Fatalf("unflushed step must be unavailable, got %v", err)
	}
}

func TestFileStoreMissingManifest(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Latest on an empty dir is a clean fresh start, not an error.
	if _, ok, err := fs.Latest(); ok || err != nil {
		t.Fatalf("empty dir Latest = (ok=%v, err=%v), want fresh start", ok, err)
	}
	// Layers without a manifest still resume fresh.
	if err := fs.PutLayer(1, rlayer(0, 1)); err != nil {
		t.Fatal(err)
	}
	step, state, err := Resume(fs)
	if err != nil || step != 0 || state != nil {
		t.Fatalf("Resume without manifest = (%d, %v, %v), want fresh", step, state, err)
	}
}

func TestPolicyEnabled(t *testing.T) {
	if !(Policy{Replicas: 2, Spread: hw.DomainZone}).Enabled() {
		t.Fatal("k=2 policy must be enabled")
	}
	if (Policy{}).Enabled() || (Policy{Replicas: 1}).Enabled() {
		t.Fatal("k<=1 policies must be disabled")
	}
}
