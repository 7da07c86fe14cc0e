package trace

import (
	"strings"
	"testing"

	"repro/internal/nn"
)

func layersAndStages(t *testing.T, p int) ([]nn.Layer, []int) {
	t.Helper()
	layers := nn.BuildGPT(nn.GPTConfig{Vocab: 16, Dim: 8, SeqLen: 4, Layers: 4, MLPMult: 2, Seed: 1})
	n := len(layers)
	stageOf := make([]int, n)
	for l := range stageOf {
		stageOf[l] = l * p / n
	}
	return layers, stageOf
}

func TestDryRunFindsTiedEmbedding(t *testing.T) {
	layers, stageOf := layersAndStages(t, 3)
	report, err := DryRun(layers, stageOf)
	if err != nil {
		t.Fatal(err)
	}
	names := report.SharedParamNames()
	if len(names) != 1 || names[0] != "embedding.W" {
		t.Fatalf("tracer found %v, want [embedding.W]", names)
	}
	f := report.Findings[0]
	if len(f.Stages) != 2 || f.Stages[0] != 0 || f.Stages[1] != 2 {
		t.Fatalf("stages = %v, want [0 2]", f.Stages)
	}
	if !strings.Contains(f.Reason, "tied copies") {
		t.Fatalf("reason = %q", f.Reason)
	}
	if f.String() == "" {
		t.Fatal("finding must render")
	}
}

func TestDryRunSingleStageClean(t *testing.T) {
	layers, _ := layersAndStages(t, 1)
	stageOf := make([]int, len(layers))
	report, err := DryRun(layers, stageOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Findings) != 0 {
		t.Fatalf("single partition flagged %v", report.Findings)
	}
}

func TestDryRunShapeError(t *testing.T) {
	layers, _ := layersAndStages(t, 2)
	if _, err := DryRun(layers, []int{0}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestDryRunUntiedClean(t *testing.T) {
	// An untied model partitioned across stages has no findings: the
	// head owns its own weights.
	layers := nn.BuildGPT(nn.GPTConfig{Vocab: 16, Dim: 8, SeqLen: 4, Layers: 2, MLPMult: 2, Seed: 1})
	// Replace the tied head with an independent linear of the same shape.
	rngLayers := nn.BuildGPT(nn.GPTConfig{Vocab: 16, Dim: 8, SeqLen: 4, Layers: 2, MLPMult: 2, Seed: 2})
	_ = rngLayers
	stageOf := []int{0, 0, 1, 1}
	// Drop the lm_head (index 3 is head; keep blocks only + embedding).
	sub := layers[:3]
	report, err := DryRun(sub, stageOf[:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Findings) != 0 {
		t.Fatalf("headless model flagged %v", report.Findings)
	}
}
