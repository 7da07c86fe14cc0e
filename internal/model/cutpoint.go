package model

import (
	"fmt"
	"math"
	"sort"
)

// CutPoint is one activated partition boundary: the model is cut after
// op index OpIndex. CutBytes is the activation volume that crosses the
// boundary per example.
type CutPoint struct {
	OpIndex  int
	Name     string
	CutBytes int64
}

// FindCutPoints implements Varuna's cut-point identification (§5.1):
// from profiled per-op compute and activation sizes, pick up to k
// boundaries that slice the model into roughly equally heavy sections
// each ending at a low-activation boundary. It returns the boundaries
// in model order.
//
// The algorithm follows the paper: compute is used to shortlist
// candidate end points for each of the k sections, and within each
// shortlist the boundary with the lowest activation size wins, keeping
// the compute-to-communication ratio high.
func FindCutPoints(s *Spec, k int) ([]CutPoint, error) {
	if k < 1 {
		return nil, fmt.Errorf("model: need at least 1 cut-point, got %d", k)
	}
	n := len(s.Ops)
	if k >= n {
		return nil, fmt.Errorf("model: %d cut-points exceed %d op boundaries", k, n-1)
	}
	total := s.FwdFlopsPerExample()
	target := total / float64(k+1)

	// prefix[i] = flops of ops[0..i] inclusive.
	prefix := make([]float64, n)
	var acc float64
	for i, op := range s.Ops {
		acc += op.FwdFlops
		prefix[i] = acc
	}

	// Shortlist the low-activation boundary class: take the smallest
	// activation sizes until at least k candidates are available. For
	// transformers this selects exactly the block boundaries (and the
	// embedding output) while skipping the 3–4× larger QKV and MLP
	// intermediates.
	sizes := make([]int64, 0, n-1)
	for i := 0; i < n-1; i++ {
		sizes = append(sizes, s.Ops[i].OutBytes)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	threshold := sizes[k-1]
	candidates := make([]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		if s.Ops[i].OutBytes <= threshold {
			candidates = append(candidates, i)
		}
	}

	// Greedily bind each ideal split point to the nearest unused
	// candidate, keeping sections compute-balanced.
	used := make(map[int]bool)
	var cuts []CutPoint
	for section := 1; section <= k; section++ {
		want := target * float64(section)
		best := -1
		for _, i := range candidates {
			if used[i] {
				continue
			}
			if best == -1 || math.Abs(prefix[i]-want) < math.Abs(prefix[best]-want) {
				best = i
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("model: could not place cut-point %d of %d", section, k)
		}
		used[best] = true
		cuts = append(cuts, CutPoint{
			OpIndex:  best,
			Name:     s.Ops[best].Name,
			CutBytes: s.Ops[best].OutBytes,
		})
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].OpIndex < cuts[j].OpIndex })
	return cuts, nil
}

// Stage is one pipeline partition: a contiguous slice of ops.
type Stage struct {
	// Index is the stage's pipeline position, 0-based.
	Index int
	// FirstOp and LastOp bound the op range, inclusive.
	FirstOp, LastOp int
	// Params is the number of parameters owned by the stage.
	Params int64
	// FwdFlops is the per-example forward compute of the stage.
	FwdFlops float64
	// SendBytes is the activation volume per example the stage sends
	// to its successor (0 for the last stage).
	SendBytes int64
}

// Partition groups the model into p contiguous stages using the
// activated subset of the given cut-points, balancing per-stage forward
// compute. With packHeadLast (the Varuna schedule's last-stage
// no-recompute property, §3.2) the lm_head and final block are biased
// into the last stage.
//
// p-1 of the cut-points are activated; the rest become pass-through,
// exactly as §6 describes ("four equally spaced cut-points are
// activated ... and the rest of the cut-points become pass through").
func Partition(s *Spec, cuts []CutPoint, p int, packHeadLast bool) ([]Stage, error) {
	if p < 1 {
		return nil, fmt.Errorf("model: pipeline depth %d < 1", p)
	}
	if p > len(cuts)+1 {
		return nil, fmt.Errorf("model: pipeline depth %d exceeds %d cut-points + 1", p, len(cuts))
	}
	// Per-stage weight: in steady state every stage spends F+R+B = 4F
	// per micro-batch, but the last stage skips recompute (3F), so with
	// packHeadLast it can absorb 4/3 the compute — which is exactly how
	// Varuna packs the lm_head into the final stage without upsetting
	// pipeline balance (§3.2).
	total := s.FwdFlopsPerExample()
	lastWeight := 1.0
	if packHeadLast && p > 1 {
		lastWeight = 4.0 / 3.0
	}
	weightSum := float64(p-1) + lastWeight
	perUnit := total / weightSum

	prefix := make([]float64, len(s.Ops))
	var acc float64
	for i, op := range s.Ops {
		acc += op.FwdFlops
		prefix[i] = acc
	}

	// Greedily activate the cut-point closest to each ideal split.
	active := make([]int, 0, p-1)
	usedCut := make(map[int]bool)
	for k := 1; k < p; k++ {
		want := perUnit * float64(k)
		best := -1
		for ci, c := range cuts {
			if usedCut[ci] {
				continue
			}
			if best == -1 || math.Abs(prefix[c.OpIndex]-want) < math.Abs(prefix[cuts[best].OpIndex]-want) {
				best = ci
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("model: not enough unused cut-points for depth %d", p)
		}
		usedCut[best] = true
		active = append(active, cuts[best].OpIndex)
	}
	sort.Ints(active)
	for i := 1; i < len(active); i++ {
		if active[i] == active[i-1] {
			return nil, fmt.Errorf("model: duplicate activated cut-point at op %d", active[i])
		}
	}

	stages := make([]Stage, 0, p)
	first := 0
	bounds := append(append([]int{}, active...), len(s.Ops)-1)
	for i, last := range bounds {
		st := Stage{Index: i, FirstOp: first, LastOp: last}
		for j := first; j <= last; j++ {
			st.Params += s.Ops[j].Params
			st.FwdFlops += s.Ops[j].FwdFlops
		}
		if last < len(s.Ops)-1 {
			st.SendBytes = s.Ops[last].OutBytes
		}
		stages = append(stages, st)
		first = last + 1
	}
	return stages, nil
}

// MaxImbalance reports the ratio of the heaviest stage's forward
// compute to the mean. 1.0 is a perfectly balanced pipeline.
func MaxImbalance(stages []Stage) float64 {
	if len(stages) == 0 {
		return 0
	}
	var sum, max float64
	for _, st := range stages {
		sum += st.FwdFlops
		if st.FwdFlops > max {
			max = st.FwdFlops
		}
	}
	return max / (sum / float64(len(stages)))
}
