// Package model describes deep-learning models analytically: their
// operator sequence, parameter counts, per-example compute and
// activation sizes. It implements Varuna's cut-point machinery (§5.1):
// identifying "safe" partition boundaries with low activation size and
// grouping them into pipeline stages at run time, plus detection of
// parameters shared across partition boundaries (§5.2), such as tied
// embedding weights.
//
// The arithmetic follows the paper's own accounting: a transformer
// layer holds 12·H² parameters, forward compute is ≈2 FLOPs per
// parameter per token, backward is twice forward, activations at block
// boundaries are 2·S·H bytes per example in mixed precision, and full
// training state costs 16 bytes per parameter.
package model

import "fmt"

// BytesPerActivation is the activation element size (fp16).
const BytesPerActivation = 2

// BytesPerParam is the parameter element size held on the wire and in
// the forward pass (fp16).
const BytesPerParam = 2

// BytesPerParamState is the full mixed-precision training state per
// parameter: fp16 param + fp16 grad + fp32 master + fp32 Adam m and v.
const BytesPerParamState = 16

// Op is one profiled operator of the model. Boundaries between ops are
// candidate cut-points; Varuna prefers boundaries where OutBytes is
// small (§5.1).
type Op struct {
	// Name identifies the operator, e.g. "layer17/mlp.fc2".
	Name string
	// Params is the number of trainable parameters owned by the op.
	Params int64
	// FwdFlops is the forward-pass compute per example.
	FwdFlops float64
	// OutBytes is the activation size per example at the boundary
	// after this op.
	OutBytes int64
}

// Spec is an analytical model description.
type Spec struct {
	// Name identifies the model, e.g. "GPT2-8.3B".
	Name string
	// NumLayers is the number of repeated transformer blocks.
	NumLayers int
	// Hidden is the model dimension H.
	Hidden int
	// SeqLen is the training sequence length S.
	SeqLen int
	// Vocab is the vocabulary size V.
	Vocab int
	// Ops is the profiled operator sequence, including embedding and
	// head ops. Built by Build.
	Ops []Op
}

// Build constructs the operator sequence for a transformer spec. Each
// block is split into four ops so that cut-point selection has real
// work to do: internal boundaries (after QKV and after the MLP
// expansion) carry 3× and 4× the activation volume of block
// boundaries, so a correct finder must skip them.
func Build(name string, layers, hidden, seqLen, vocab int, tied bool) *Spec {
	s := &Spec{
		Name:      name,
		NumLayers: layers,
		Hidden:    hidden,
		SeqLen:    seqLen,
		Vocab:     vocab,
	}
	h := float64(hidden)
	seq := float64(seqLen)
	blockBoundary := int64(seqLen * hidden * BytesPerActivation)

	s.Ops = append(s.Ops, Op{
		Name:     "embedding",
		Params:   int64(vocab) * int64(hidden),
		FwdFlops: 2 * seq * h, // lookup + positional add; negligible
		OutBytes: blockBoundary,
	})
	for l := 0; l < layers; l++ {
		attnParams := int64(4) * int64(hidden) * int64(hidden)
		mlp1Params := int64(4) * int64(hidden) * int64(hidden)
		mlp2Params := int64(4) * int64(hidden) * int64(hidden)
		// QKV projection plus attention score/context matmuls.
		s.Ops = append(s.Ops, Op{
			Name:     fmt.Sprintf("layer%d/attn.qkv", l),
			Params:   attnParams * 3 / 4,
			FwdFlops: 2*seq*h*3*h + 4*seq*seq*h,
			OutBytes: 3 * blockBoundary, // q,k,v live at this point
		})
		s.Ops = append(s.Ops, Op{
			Name:     fmt.Sprintf("layer%d/attn.out", l),
			Params:   attnParams / 4,
			FwdFlops: 2 * seq * h * h,
			OutBytes: blockBoundary,
		})
		s.Ops = append(s.Ops, Op{
			Name:     fmt.Sprintf("layer%d/mlp.fc1", l),
			Params:   mlp1Params,
			FwdFlops: 2 * seq * h * 4 * h,
			OutBytes: 4 * blockBoundary, // expanded MLP intermediate
		})
		s.Ops = append(s.Ops, Op{
			Name:     fmt.Sprintf("layer%d/mlp.fc2", l),
			Params:   mlp2Params,
			FwdFlops: 2 * seq * 4 * h * h,
			OutBytes: blockBoundary,
		})
	}
	// Final LM head: projection back to vocab. With tied embeddings it
	// owns no new parameters but still computes the big matmul.
	headParams := int64(vocab) * int64(hidden)
	if tied {
		headParams = 0
	}
	s.Ops = append(s.Ops, Op{
		Name:     "lm_head",
		Params:   headParams,
		FwdFlops: 2 * seq * h * float64(vocab),
		OutBytes: int64(seqLen) * int64(vocab) * BytesPerActivation,
	})
	return s
}

// Params reports the total trainable parameter count.
func (s *Spec) Params() int64 {
	var n int64
	for _, op := range s.Ops {
		n += op.Params
	}
	return n
}

// FwdFlopsPerExample reports the forward compute of one example.
func (s *Spec) FwdFlopsPerExample() float64 {
	var f float64
	for _, op := range s.Ops {
		f += op.FwdFlops
	}
	return f
}

// TrainFlopsPerExample reports total useful compute per example:
// forward plus backward (2× forward).
func (s *Spec) TrainFlopsPerExample() float64 {
	return 3 * s.FwdFlopsPerExample()
}

// BlockActivationBytes is the activation size per example at a block
// boundary (the paper's "end of layer activations": 2·S·H bytes, e.g.
// 3.75 MB for the 2.5B model).
func (s *Spec) BlockActivationBytes() int64 {
	return int64(s.SeqLen) * int64(s.Hidden) * BytesPerActivation
}

// String summarizes the spec.
func (s *Spec) String() string {
	return fmt.Sprintf("%s(%dL,H=%d,S=%d,%.2fB params)",
		s.Name, s.NumLayers, s.Hidden, s.SeqLen, float64(s.Params())/1e9)
}
