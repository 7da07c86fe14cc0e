package autoconfig

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
)

// freshPlanDepth is planDepth without the plan memo: the partition, the
// kernel sweet spot and the pruned micro-batch sizes computed anew.
func freshPlanDepth(in Inputs, p, d int) (depthPlan, error) {
	if p < 1 || d < 1 {
		return depthPlan{}, fmt.Errorf("autoconfig: bad shape %dx%d", p, d)
	}
	stages, err := model.Partition(in.Spec, in.Cuts, p, true)
	if err != nil {
		return depthPlan{}, err
	}
	dp := depthPlan{p: p, d: d, stages: stages}
	for _, m := range pruneMicroSizes(in, stages, p, d, in.Params.PickMicroSize(0.05)) {
		dp.micros = append(dp.micros, microPlan{m: m, nm: GradAccum(in.MTotal, m, d)})
	}
	return dp, nil
}

// TestPlanMemoMatchesPlanDepth: for every (P, D) the sweeps of the four
// shrink levels take at fleet sizes 1..300, a Planner's memoized plan
// equals a fresh one twice in a row (the fill, then a memo hit): the
// stages, each size and its Nm, and the error. Plans at one depth share
// its stages; each plan's micros is its own. Shapes planDepth refuses
// fail as a fresh plan does and leave the memo as it was.
func TestPlanMemoMatchesPlanDepth(t *testing.T) {
	for _, mc := range []struct {
		name string
		spec *model.Spec
		cuts int
	}{{"8.3B", model.GPT2Megatron8B(), 71}, {"2.5B", model.GPT2XL2B(), 53}} {
		t.Run(mc.name, func(t *testing.T) {
			in := inputsFor(t, mc.spec, mc.cuts)
			pl := NewPlanner(in)
			check := func(sh shape) depthPlan {
				t.Helper()
				want, wantErr := freshPlanDepth(in, sh.p, sh.d)
				var prev []microPlan
				for i := 0; i < 2; i++ {
					got, err := pl.cache.planDepth(in, sh.p, sh.d)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%dx%d call %d: error %v, fresh %v", sh.p, sh.d, i, err, wantErr)
					}
					if got.p != want.p || got.d != want.d || !reflect.DeepEqual(got.stages, want.stages) {
						t.Fatalf("%dx%d call %d: memoized stages differ from a fresh partition", sh.p, sh.d, i)
					}
					if len(got.micros) != len(want.micros) {
						t.Fatalf("%dx%d call %d: %d sizes, fresh %d", sh.p, sh.d, i, len(got.micros), len(want.micros))
					}
					for j := range want.micros {
						if g, w := got.micros[j], want.micros[j]; g.m != w.m || g.nm != w.nm || g.costs != nil || g.est != 0 {
							t.Fatalf("%dx%d call %d: size %d is %+v, fresh %+v", sh.p, sh.d, i, j, got.micros[j], want.micros[j])
						}
					}
					if len(prev) > 0 && &prev[0] == &got.micros[0] {
						t.Fatalf("%dx%d: two plans share one micros slice", sh.p, sh.d)
					}
					prev = got.micros
					want.stages = got.stages
				}
				return want
			}

			stagesAt := make(map[int]*model.Stage)
			seen := make(map[shape]bool)
			for g := 1; g <= 300; g++ {
				for _, lv := range shrinkLevels {
					lg := g * lv.num / lv.den
					if lg < 1 {
						continue
					}
					shapes, err := sweepShapes(in, lg)
					if err != nil {
						t.Fatal(err)
					}
					for _, sh := range shapes {
						if seen[sh] {
							continue
						}
						seen[sh] = true
						dp := check(sh)
						if len(dp.stages) == 0 {
							continue
						}
						if first, ok := stagesAt[sh.p]; !ok {
							stagesAt[sh.p] = &dp.stages[0]
						} else if first != &dp.stages[0] {
							t.Fatalf("%dx%d: plans at depth %d do not share its stages", sh.p, sh.d, sh.p)
						}
					}
				}
			}
			if len(stagesAt) != len(in.Cuts)+1 {
				t.Fatalf("sweeps planned %d depths, want every depth 1..%d", len(stagesAt), len(in.Cuts)+1)
			}

			pl.cache.plans.mu.Lock()
			filled := len(pl.cache.plans.sizes)
			pl.cache.plans.mu.Unlock()
			for _, sh := range []shape{{0, 1}, {1, 0}, {-2, 3}, {len(in.Cuts) + 2, 1}, {1 << 20, 4}} {
				check(sh)
			}
			pl.cache.plans.mu.Lock()
			defer pl.cache.plans.mu.Unlock()
			if after := len(pl.cache.plans.sizes); after != filled || len(pl.cache.plans.depths) != len(in.Cuts)+1 {
				t.Fatalf("refused shapes grew the memo: %d shapes before, %d after", filled, after)
			}
		})
	}
}

// warmDecisionAllocBound is twice the allocations of a warm min-$
// decision with the plan memo (110); without it the decision makes 558,
// re-partitioning and re-pruning every shape of its four levels.
const warmDecisionAllocBound = 220

// TestWarmDecisionAllocations counts the allocations of
// BenchmarkBestForMinDollarWarm's decision: a min-$ BestFor for 40 GPUs
// of 2.5B on a Planner that has made it before. Every key it reads is
// cached, so it starts no presimulation workers and the count is exact.
func TestWarmDecisionAllocations(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	obj, ec := Objective{Kind: ObjMinDollarPerExample}, Econ{PerGPUHour: 2.4, MeanPerGPUHour: 2.4}
	pl := NewPlanner(in)
	want, err := pl.BestFor(40, obj, ec)
	if err != nil {
		t.Fatal(err)
	}
	var got Choice
	allocs := testing.AllocsPerRun(20, func() { got, err = pl.BestFor(40, obj, ec) })
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("warm decision %v %v, cold %v", got, err, want)
	}
	t.Logf("warm min-$ decision: %.0f allocations", allocs)
	if allocs > warmDecisionAllocBound {
		t.Fatalf("warm min-$ decision made %.0f allocations, bound %d", allocs, warmDecisionAllocBound)
	}
}
