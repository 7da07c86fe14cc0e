package autoconfig

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/simtime"
)

// decided is one Best outcome in comparable form.
type decided struct {
	choice Choice
	err    string
}

func decide(c Choice, err error) decided {
	if err != nil {
		return decided{err: err.Error()}
	}
	return decided{choice: c}
}

// TestPlannerBestBoundedExact: the bounded Planner.Best returns exactly
// the stateless full-sweep Best, choice and error string alike, for
// fleet sizes across 1..256 — cold, warm after sweeps at other sizes,
// through pathologically small caches, and after ImportState.
func TestPlannerBestBoundedExact(t *testing.T) {
	var sizes []int
	for g := 1; g <= 256; g += 17 {
		sizes = append(sizes, g)
	}
	for _, mc := range []struct {
		name string
		spec *model.Spec
		cuts int
	}{{"8.3B", model.GPT2Megatron8B(), 71}, {"2.5B", model.GPT2XL2B(), 53}} {
		t.Run(mc.name, func(t *testing.T) {
			in := inputsFor(t, mc.spec, mc.cuts)
			want := make(map[int]decided, len(sizes))
			for _, g := range sizes {
				want[g] = decide(Best(in, g))
			}
			check := func(how string, pl *Planner) {
				t.Helper()
				for _, g := range sizes {
					if got := decide(pl.Best(g)); !reflect.DeepEqual(got, want[g]) {
						t.Fatalf("%s G=%d: bounded Best %v %q, stateless %v %q",
							how, g, got.choice, got.err, want[g].choice, want[g].err)
					}
				}
			}

			for _, g := range sizes {
				if got := decide(NewPlanner(in).Best(g)); !reflect.DeepEqual(got, want[g]) {
					t.Fatalf("cold G=%d: bounded Best %v %q, stateless %v %q",
						g, got.choice, got.err, want[g].choice, want[g].err)
				}
			}

			// Sweeps at sizes off the grid leave some candidate keys
			// cached exactly and others to the bound.
			warm := NewPlanner(in)
			for _, g := range []int{64, 128, 200} {
				if _, err := warm.Sweep(g); err != nil {
					t.Fatal(err)
				}
			}
			state, err := warm.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			check("warm", warm)
			check("capped", NewPlannerCapped(in, 2, 2))
			imported := NewPlanner(in)
			if err := imported.ImportState(state); err != nil {
				t.Fatal(err)
			}
			check("imported", imported)
		})
	}
}

// TestPlannerBestDeterministic: which candidates the bounded Best
// simulates depends on the inputs alone, so the planner's counters
// after a fixed call sequence do not move with GOMAXPROCS.
func TestPlannerBestDeterministic(t *testing.T) {
	in := inputsFor(t, model.GPT2Megatron8B(), 71)
	run := func(procs int) PlannerStats {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		pl := NewPlanner(in)
		for _, g := range []int{128, 96, 128, 160, 112, 96} {
			if _, err := pl.Best(g); err != nil {
				t.Fatal(err)
			}
		}
		return pl.Stats()
	}
	one, four := run(1), run(4)
	if one != four {
		t.Fatalf("planner stats depend on GOMAXPROCS\n1: %+v\n4: %+v", one, four)
	}
	if one.Sweeps != 4 || one.DecisionHits != 2 || one.DecisionMisses != 4 {
		t.Fatalf("each memo miss counts one sweep: %+v", one)
	}
}

// TestDecisionsIndependentOfGOMAXPROCS: every evaluation simulates its
// micro-batch sizes concurrently and commits them serially, in
// candidate order and then size order. So choices, errors, PlannerStats
// and ExportState bytes are the same at GOMAXPROCS 1, 2 and 8: for
// Best; for BestFor's min-$, its deadline with and without a required
// rate, and its simulate-everything fallback (no price); for Sweep;
// and for Evaluate. Three planners run the calls: a cold one, one
// warmed by ImportState, and a capped one whose cache evicts during
// decisions and sweeps, so that some sizes cached at their cost pass
// are evicted before their commit. At this cap, which keys survive
// depends on the order of the commits. The stateless Sweep is compared
// across the same GOMAXPROCS values too; GOMAXPROCS 1 is the serial
// run.
func TestDecisionsIndependentOfGOMAXPROCS(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	minDollar := Objective{Kind: ObjMinDollarPerExample}
	deadline := Objective{Kind: ObjDeadline, DeadlineAt: simtime.Time(24 * simtime.Hour), TargetExamples: 5e6}
	// Seven decisions count a sweep: five dollar decisions and two Best
	// memo misses; the last Best hits the memo.
	cases := []dollarCase{
		{40, Objective{}, Econ{}},
		{40, minDollar, Econ{PerGPUHour: 2.4, MeanPerGPUHour: 2.4}},
		{32, deadline, Econ{PerGPUHour: 4.3, MeanPerGPUHour: 2.4, Now: simtime.Time(6 * simtime.Hour), DoneExamples: 1e6}},
		{24, deadline, Econ{PerGPUHour: 1.2, MeanPerGPUHour: 2.4, Now: simtime.Time(20 * simtime.Hour), DoneExamples: 5e6}},
		{36, minDollar, Econ{}},
		{40, minDollar, Econ{PerGPUHour: 7.2, MeanPerGPUHour: 2.4, PreemptEvery: 20 * simtime.Minute, CheckpointEvery: 50}},
		{56, Objective{}, Econ{}},
		{40, Objective{}, Econ{}},
	}
	if r := requiredRate(cases[2].obj, cases[2].ec); !(r > 0) {
		t.Fatalf("the live deadline requires no rate (%v)", r)
	}
	if r := requiredRate(cases[3].obj, cases[3].ec); r != 0 {
		t.Fatalf("the met deadline requires a rate (%v)", r)
	}
	// Five more sweeps, and evaluations that fit, do not fit (P=2) and
	// are malformed (P=0).
	sweeps := []int{40, 36, 56, 40, 24}
	shapes := []shape{{18, 2}, {9, 4}, {2, 1}, {0, 1}}

	type outcome struct {
		results []decided
		stats   PlannerStats
		state   string
	}
	runAll := func(pl *Planner, cs []dollarCase, sweeps []int, shapes []shape) outcome {
		var out outcome
		for _, c := range cs {
			if c.obj.Kind == ObjMaxThroughput {
				out.results = append(out.results, decide(pl.Best(c.g)))
			} else {
				out.results = append(out.results, decide(pl.BestFor(c.g, c.obj, c.ec)))
			}
		}
		for _, g := range sweeps {
			out.results = append(out.results, swept(pl.Sweep(g))...)
		}
		for _, sh := range shapes {
			out.results = append(out.results, decide(pl.Evaluate(sh.p, sh.d)))
		}
		state, err := pl.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		out.stats, out.state = pl.Stats(), string(state)
		return out
	}
	warm := runAll(NewPlanner(in), cases[:2], nil, nil).state

	for _, pc := range []struct {
		name  string
		build func() *Planner
	}{
		{"cold", func() *Planner { return NewPlanner(in) }},
		{"imported", func() *Planner {
			pl := NewPlanner(in)
			if err := pl.ImportState([]byte(warm)); err != nil {
				t.Fatal(err)
			}
			return pl
		}},
		{"capped", func() *Planner { return NewPlannerCapped(in, 32, 2) }},
	} {
		var want outcome
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got := runAll(pc.build(), cases, sweeps, shapes)
			runtime.GOMAXPROCS(prev)
			if procs == 1 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got.results, want.results) || got.stats != want.stats || got.state != want.state {
				t.Fatalf("%s planner at GOMAXPROCS %d differs from GOMAXPROCS 1 (results equal %v, state equal %v)\n1: %+v\n%d: %+v",
					pc.name, procs, reflect.DeepEqual(got.results, want.results), got.state == want.state, want.stats, procs, got.stats)
			}
		}
		switch s := want.stats; {
		case pc.name == "cold" && (s.Sweeps != 7+uint64(len(sweeps)) || s.DecisionMisses != 2 || s.DecisionHits != 1):
			t.Fatalf("each sweep, Best memo miss and dollar decision counts one sweep: %+v", s)
		case pc.name == "capped" && s.CostEvictions == 0:
			t.Fatalf("a cap of 32 cost keys must evict during the decisions: %+v", s)
		}
	}

	var want [][]decided
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		var got [][]decided
		for _, g := range []int{5, 24, 36, 100, 128, 300} {
			got = append(got, swept(Sweep(in, g)))
		}
		runtime.GOMAXPROCS(prev)
		if procs == 1 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("stateless Sweep at GOMAXPROCS %d differs from GOMAXPROCS 1", procs)
		}
	}
}

// swept is a Sweep outcome in comparable form: one entry per choice, or
// the error.
func swept(cs []Choice, err error) []decided {
	if err != nil {
		return []decided{{err: err.Error()}}
	}
	out := make([]decided, len(cs))
	for i, c := range cs {
		out[i] = decided{choice: c}
	}
	return out
}

// TestPlannerBestSkipsDepths: a cold bounded Best(128) on 8.3B
// simulates strictly fewer candidates than a cold sweep of the same
// fleet, and accounts for the depths it skipped.
func TestPlannerBestSkipsDepths(t *testing.T) {
	in := inputsFor(t, model.GPT2Megatron8B(), 71)
	swept := NewPlanner(in)
	if _, err := swept.Sweep(128); err != nil {
		t.Fatal(err)
	}
	bounded := NewPlanner(in)
	if _, err := bounded.Best(128); err != nil {
		t.Fatal(err)
	}
	s, b := swept.Stats(), bounded.Stats()
	if b.SimRuns >= s.SimRuns {
		t.Fatalf("bounded Best simulated %d candidates, the sweep %d", b.SimRuns, s.SimRuns)
	}
	if b.BoundSkips == 0 || s.BoundSkips != 0 {
		t.Fatalf("bound skips: Best %d, Sweep %d", b.BoundSkips, s.BoundSkips)
	}
	// Every candidate gets its costs assembled once, simulated or not.
	if b.CostComputes != s.CostComputes || b.CostMisses != b.SimRuns || b.Sweeps != 1 {
		t.Fatalf("counters: Best %+v, Sweep %+v", b, s)
	}
	// The cache holds only simulated entries.
	var st PlannerState
	data, err := bounded.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if uint64(len(st.Costs)) != b.SimRuns {
		t.Fatalf("%d cost entries cached, %d simulated", len(st.Costs), b.SimRuns)
	}
	// On the swept planner every key is cached: Best reads the exact
	// estimates as its ceilings and rebuilds and re-simulates nothing.
	if _, err := swept.Best(128); err != nil {
		t.Fatal(err)
	}
	if w := swept.Stats(); w.CostComputes != s.CostComputes || w.SimRuns != s.SimRuns {
		t.Fatalf("warm Best recomputed: before %+v, after %+v", s, w)
	}
}

// TestImportStateRejectsMalformed: every hand-corrupted snapshot is
// refused with an error naming the entry, and leaves the caches as
// they were.
func TestImportStateRejectsMalformed(t *testing.T) {
	in := inputsFor(t, model.GPT2XL2B(), 53)
	src := NewPlanner(in)
	if _, err := src.Best(16); err != nil {
		t.Fatal(err)
	}
	// A dead fleet memoizes its error under G = 0, which a snapshot
	// must carry through.
	if _, err := src.Best(0); err == nil {
		t.Fatal("0 GPUs must fail")
	}
	data, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	var good PlannerState
	if err := json.Unmarshal(data, &good); err != nil {
		t.Fatal(err)
	}
	if len(good.Costs) < 2 || len(good.Decisions) != 2 || good.Decisions[0].G != 0 {
		t.Fatalf("fixture: %d cost entries, %d decisions", len(good.Costs), len(good.Decisions))
	}

	for _, c := range []struct {
		name, want string
		corrupt    func(*PlannerState)
	}{
		{"p", "cost entry 1", func(st *PlannerState) { st.Costs[1].P = 0 }},
		{"m", "cost entry 1", func(st *PlannerState) { st.Costs[1].M = 0 }},
		{"d", "cost entry 1", func(st *PlannerState) { st.Costs[1].D = -3 }},
		{"nm", "cost entry 1", func(st *PlannerState) { st.Costs[1].Nm = 0 }},
		{"zero est", "cost entry 1", func(st *PlannerState) { st.Costs[1].Est = 0 }},
		{"negative est", "cost entry 1", func(st *PlannerState) { st.Costs[1].Est = -5 }},
		{"short costs", "cost entry 1", func(st *PlannerState) { st.Costs[1].Costs = st.Costs[1].Costs[1:] }},
		{"long costs", "cost entry 1", func(st *PlannerState) { st.Costs[1].Costs = append(st.Costs[1].Costs, st.Costs[1].Costs[0]) }},
		{"negative g", "decision entry 1", func(st *PlannerState) { st.Decisions[1].G = -16 }},
		{"empty fleet decided", "decision entry 0", func(st *PlannerState) { st.Decisions[0].Err = "" }},
	} {
		var st PlannerState
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		c.corrupt(&st)
		bad, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		pl := NewPlanner(in)
		err = pl.ImportState(bad)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: ImportState error %v, want one naming %q", c.name, err, c.want)
		}
		after, err := pl.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		var left PlannerState
		if err := json.Unmarshal(after, &left); err != nil {
			t.Fatal(err)
		}
		if len(left.Costs) != 0 || len(left.Decisions) != 0 {
			t.Fatalf("%s: refused import left %d cost entries and %d decisions", c.name, len(left.Costs), len(left.Decisions))
		}
	}

	pl := NewPlanner(in)
	if err := pl.ImportState(data); err != nil {
		t.Fatalf("the uncorrupted snapshot must import: %v", err)
	}
}
