// Package trace implements Varuna's cross-partition dependency tracer
// (§5.2). The paper instruments PyTorch so that every tensor created
// during a dry run is tagged with the cut-point (partition) it belongs
// to; any tensor that more than one partition touches is flagged as
// hidden cross-partition state that must be synchronized.
//
// Here DryRun walks the partitioned nn layer graph in one process,
// tagging every parameter with the stages of the layers that expose
// it. It reports the parameters seen on more than one stage, which
// are the tied weights (the input embedding the output projection
// shares). The engine allreduces those parameters' gradients across
// the pipeline group every mini-batch, its §6 "second process group".
package trace

import (
	"fmt"
	"sort"

	"repro/internal/nn"
)

// Finding is one detected cross-partition dependency.
type Finding struct {
	// Tensor names the offending parameter.
	Tensor string
	// Stages lists the partitions that touched it, ascending.
	Stages []int
	// Reason explains the detection.
	Reason string
}

// String renders the finding.
func (f Finding) String() string {
	return fmt.Sprintf("%s touched by stages %v (%s)", f.Tensor, f.Stages, f.Reason)
}

// Report is the tracer's output: the list of tensors the user must
// mark as shared so Varuna synchronizes them every mini-batch.
type Report struct {
	Findings []Finding
}

// SharedParamNames lists the parameter names that need a cross-stage
// allreduce, sorted and deduplicated.
func (r Report) SharedParamNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range r.Findings {
		if !seen[f.Tensor] {
			seen[f.Tensor] = true
			out = append(out, f.Tensor)
		}
	}
	sort.Strings(out)
	return out
}

// DryRun executes the tracer over a partitioned layer sequence:
// stageOf[l] gives the stage owning layer l. Parameters are tagged by
// the stage of the first layer that exposes them; a parameter exposed
// again by a layer on a different stage is a cross-partition
// dependency — exactly how tied embeddings surface. Parameters marked
// Shared by construction but observed on a single stage are reported
// as benign (no finding).
func DryRun(layers []nn.Layer, stageOf []int) (Report, error) {
	if len(layers) != len(stageOf) {
		return Report{}, fmt.Errorf("trace: %d layers but %d stage tags", len(layers), len(stageOf))
	}
	type seenAt struct {
		stages map[int]bool
		ptr    map[*nn.Param]bool
	}
	params := map[string]*seenAt{}
	var order []string
	for l, layer := range layers {
		st := stageOf[l]
		for _, p := range layer.Params() {
			s, ok := params[p.Name]
			if !ok {
				s = &seenAt{stages: map[int]bool{}, ptr: map[*nn.Param]bool{}}
				params[p.Name] = s
				order = append(order, p.Name)
			}
			s.stages[st] = true
			s.ptr[p] = true
		}
	}
	var report Report
	for _, name := range order {
		s := params[name]
		if len(s.stages) <= 1 {
			continue
		}
		stages := make([]int, 0, len(s.stages))
		for st := range s.stages {
			stages = append(stages, st)
		}
		sort.Ints(stages)
		reason := "same parameter exposed by layers on different partitions"
		if len(s.ptr) > 1 {
			reason = "tied copies of one logical parameter live on different partitions"
		}
		report.Findings = append(report.Findings, Finding{Tensor: name, Stages: stages, Reason: reason})
	}
	return report, nil
}
