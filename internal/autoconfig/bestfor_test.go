package autoconfig

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/simtime"
)

// candidatesFor is the full candidate set of a dollar decision, the
// reference the bounded set is tested against: one Sweep per shrink
// level, the first evaluation of each P×D kept, in sortChoices order.
// Levels that don't fit the model are skipped; with none fitting it
// returns the first level's error, or the dead-fleet error when g = 0
// skips every level.
func (pl *Planner) candidatesFor(g int) ([]Choice, error) {
	seen := make(map[[2]int]bool)
	var out []Choice
	var firstErr error
	for _, lv := range shrinkLevels {
		lg := g * lv.num / lv.den
		if lg < 1 {
			continue
		}
		cands, err := pl.Sweep(lg)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, c := range cands {
			key := [2]int{c.P, c.D}
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("autoconfig: no GPUs")
		}
		return nil, firstErr
	}
	sortChoices(out)
	return out, nil
}

// dollarCase is one seeded dollar decision.
type dollarCase struct {
	g   int
	obj Objective
	ec  Econ
}

// dollarDecided is one dollar decision's outcome in comparable form;
// the baseline is kept as bits so a NaN baseline compares equal.
type dollarDecided struct {
	choice   Choice
	baseline uint64
	err      string
}

func dollarDecide(c Choice, baseline float64, err error) dollarDecided {
	if err != nil {
		return dollarDecided{err: err.Error()}
	}
	return dollarDecided{choice: c, baseline: math.Float64bits(baseline)}
}

// dollarFlavors is how many kinds of decision dollarCaseAt draws.
const dollarFlavors = 5

// dollarCaseAt draws a decision of the given flavor for g GPUs:
//
//	0: min-$;
//	1, 2: a live deadline, whose required rate is drawn relative to top
//	   (the fleet's best nameplate throughput), so that it sometimes
//	   clears and sometimes does not;
//	3: a deadline met or missed;
//	4: either objective with a price that is zero, negative, infinite
//	   or NaN, or a NaN progress count.
//
// The spot price is 0.3–3.3× a 2.40 mean, the mean is zero one time
// in ten, and a preemption and a checkpoint cadence are each set half
// the time.
func dollarCaseAt(rng *rand.Rand, flavor, g int, top float64) dollarCase {
	const mean = 2.4
	ec := Econ{
		PerGPUHour:     mean * (0.3 + 3*rng.Float64()),
		MeanPerGPUHour: mean,
		Now:            simtime.Time(rng.Int63n(int64(20 * simtime.Hour))),
		DoneExamples:   1e6 * rng.Float64(),
	}
	if rng.Intn(10) == 0 {
		ec.MeanPerGPUHour = 0
	}
	if rng.Intn(2) == 0 {
		ec.PreemptEvery = simtime.Duration(5+rng.Intn(120)) * simtime.Minute
	}
	if rng.Intn(2) == 0 {
		ec.CheckpointEvery = 1 + rng.Intn(200)
	}
	obj := Objective{Kind: ObjDeadline, DeadlineAt: simtime.Time(24 * simtime.Hour)}
	// live sets a target whose required rate, 1.5·remaining/left, is
	// 0.02–1.42 of top over the headroom.
	live := func() {
		required := (0.02 + 1.4*rng.Float64()) * top / deadlineHeadroom
		obj.TargetExamples = ec.DoneExamples + required*obj.DeadlineAt.Sub(ec.Now).Seconds()/1.5
	}
	switch flavor {
	case 0:
		obj = Objective{Kind: ObjMinDollarPerExample}
	case 1, 2:
		live()
	case 3:
		if rng.Intn(2) == 0 {
			obj.TargetExamples = 1 + ec.DoneExamples*rng.Float64()
		} else {
			ec.Now = obj.DeadlineAt + simtime.Time(rng.Int63n(int64(simtime.Hour)))
			obj.TargetExamples = ec.DoneExamples + 1e6
		}
	default:
		live()
		switch rng.Intn(5) {
		case 0:
			ec.MeanPerGPUHour, ec.PerGPUHour = 0, 0
		case 1:
			ec.MeanPerGPUHour = -mean
		case 2:
			ec.MeanPerGPUHour, ec.PerGPUHour = 0, math.Inf(1)
		case 3:
			ec.MeanPerGPUHour = math.NaN()
		default:
			ec.DoneExamples = math.NaN()
		}
		if rng.Intn(2) == 0 {
			obj = Objective{Kind: ObjMinDollarPerExample}
		}
	}
	return dollarCase{g: g, obj: obj, ec: ec}
}

// TestBestForBoundedExact: for seeded dollar decisions on 2.5B and
// 8.3B, the bounded BestFor returns exactly the choice, the baseline
// and the error of the same decision over the full candidate set (four
// sweeps). One planner decides every case in turn (warm), another
// first imports the state of the cold planners that decided the
// previous sizes (imported); one case per size runs on a fresh planner
// (cold) and one through pathologically small caches (capped).
func TestBestForBoundedExact(t *testing.T) {
	for _, mc := range []struct {
		name  string
		spec  *model.Spec
		cuts  int
		sizes []int
	}{
		{"2.5B", model.GPT2XL2B(), 53, []int{0, 1, 5, 24, 48}},
		{"8.3B", model.GPT2Megatron8B(), 71, []int{8, 30, 48}},
	} {
		t.Run(mc.name, func(t *testing.T) {
			in := inputsFor(t, mc.spec, mc.cuts)
			// One reference planner shares its cache across all full
			// candidate sets, and each set serves every case at its size.
			ref := NewPlanner(in)
			rng := rand.New(rand.NewSource(16))
			warm, imported := NewPlanner(in), NewPlanner(in)
			for si, g := range mc.sizes {
				full, ferr := ref.candidatesFor(g)
				top := 100.0
				if ferr == nil {
					top = full[len(full)-1].TotalExPerSec()
				}
				var cold *Planner
				for flavor := 0; flavor < dollarFlavors; flavor++ {
					c := dollarCaseAt(rng, flavor, g, top)
					want := dollarDecide(Choice{}, 0, ferr)
					if ferr == nil {
						choice, baseline := pickDollar(full, c.obj, c.ec)
						want = dollarDecide(choice, baseline, nil)
					}
					check := func(how string, pl *Planner) {
						t.Helper()
						if got := dollarDecide(pl.bestForEcon(g, c.obj, c.ec)); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s G=%d %v %+v %+v:\nbounded %v baseline %x %q\nfull    %v baseline %x %q",
								how, g, c.obj.Kind, c.obj, c.ec,
								got.choice, got.baseline, got.err, want.choice, want.baseline, want.err)
						}
					}
					check("warm", warm)
					check("imported", imported)
					switch flavor {
					case si % 2:
						cold = NewPlanner(in)
						check("cold", cold)
					case 1 - si%2:
						check("capped", NewPlannerCapped(in, 3, 3))
					}
				}
				state, err := cold.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if err := imported.ImportState(state); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestBestForDeterministic: which candidates a dollar decision
// simulates depends on the inputs and the cache alone, so the
// planner's counters after a fixed BestFor sequence do not move with
// GOMAXPROCS.
func TestBestForDeterministic(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	deadline := Objective{Kind: ObjDeadline, DeadlineAt: simtime.Time(24 * simtime.Hour), TargetExamples: 5e6}
	run := func(procs int) PlannerStats {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		pl := NewPlanner(in)
		for _, c := range []dollarCase{
			{40, Objective{Kind: ObjMinDollarPerExample}, Econ{PerGPUHour: 2.4, MeanPerGPUHour: 2.4}},
			{32, deadline, Econ{PerGPUHour: 4.3, MeanPerGPUHour: 2.4, Now: simtime.Time(6 * simtime.Hour), DoneExamples: 1e6}},
			{40, Objective{Kind: ObjMinDollarPerExample}, Econ{PerGPUHour: 7.2, MeanPerGPUHour: 2.4, PreemptEvery: 20 * simtime.Minute, CheckpointEvery: 50}},
			{24, deadline, Econ{PerGPUHour: 1.2, MeanPerGPUHour: 2.4, Now: simtime.Time(20 * simtime.Hour), DoneExamples: 4.9e6}},
		} {
			if _, err := pl.BestFor(c.g, c.obj, c.ec); err != nil {
				t.Fatal(err)
			}
		}
		return pl.Stats()
	}
	one, four := run(1), run(4)
	if one != four {
		t.Fatalf("planner stats depend on GOMAXPROCS\n1: %+v\n4: %+v", one, four)
	}
	if one.Sweeps != 4 || one.DecisionHits+one.DecisionMisses != 0 {
		t.Fatalf("each dollar decision counts one sweep and no memo lookup: %+v", one)
	}
}

// TestBestForSkipsDepths: a cold min-$ BestFor on 2.5B simulates
// strictly fewer candidates than the four sweeps of its full candidate
// set, counts one sweep and accounts for the depths it skipped.
func TestBestForSkipsDepths(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	full := NewPlanner(in)
	if _, err := full.candidatesFor(40); err != nil {
		t.Fatal(err)
	}
	bounded := NewPlanner(in)
	if _, err := bounded.BestFor(40, Objective{Kind: ObjMinDollarPerExample}, Econ{PerGPUHour: 2.4, MeanPerGPUHour: 2.4}); err != nil {
		t.Fatal(err)
	}
	f, b := full.Stats(), bounded.Stats()
	if b.SimRuns >= f.SimRuns {
		t.Fatalf("bounded BestFor simulated %d candidates, the four sweeps %d", b.SimRuns, f.SimRuns)
	}
	if b.Sweeps != 1 || b.BoundSkips == 0 || b.CostMisses != b.SimRuns {
		t.Fatalf("counters: bounded %+v, full %+v", b, f)
	}
}
