package restart_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/autoconfig"
	"repro/internal/calibrate"
	"repro/internal/checkpoint"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/restart"
	"repro/internal/simtime"
	"repro/internal/testbed"
)

// syntheticModel builds a hand-checkable cost model: four 800-byte
// layers, 800 B/s everywhere, no latency, no contention — so every
// golden duration below is integer seconds computable on paper.
func syntheticModel() *restart.Model {
	return &restart.Model{
		LayerBytes:  []int64{800, 800, 800, 800},
		FlushBps:    800,
		Fabric:      netsim.New(1),
		Link:        hw.Link{Kind: hw.LinkEthernet, BandwidthBps: 800, Latency: 0, JitterCV: 0},
		StopTime:    5 * simtime.Second,
		RestartTime: 30 * simtime.Second,
	}
}

func stages(bounds ...[2]int) []model.Stage {
	out := make([]model.Stage, len(bounds))
	for i, b := range bounds {
		out[i] = model.Stage{Index: i, FirstOp: b[0], LastOp: b[1]}
	}
	return out
}

// TestPriceGolden pins the modeled morph cost for known (bytes, P×D
// old→new, bandwidth) tuples.
func TestPriceGolden(t *testing.T) {
	m := syntheticModel()
	p2 := stages([2]int{0, 1}, [2]int{2, 3})
	p4 := stages([2]int{0, 0}, [2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3})

	cases := []struct {
		name     string
		old, new restart.Assignment
		dirty    bool
		want     restart.Costs
	}{
		{
			// Deepen 2x1 → 4x1. Flush: each old replica writes its full
			// 1600 B stage at 800 B/s = 2s. Redistribution is
			// source-bound: every fetch is 800 B (1s), but old rank 1 is
			// the lone holder serving ops 2 and 3 to the two fresh
			// ranks — 1600 B uploaded at 800 B/s = 2s.
			name:  "deepen 2x1 to 4x1, dirty",
			old:   restart.Assignment{Stages: p2, D: 1},
			new:   restart.Assignment{Stages: p4, D: 1},
			dirty: true,
			want: restart.Costs{
				Stop:         5 * simtime.Second,
				Flush:        2 * simtime.Second,
				Redistribute: 2 * simtime.Second,
				Restart:      30 * simtime.Second,
			},
		},
		{
			// Widen 2x1 → 2x2, clean. Survivors keep their stages; the
			// two fresh ranks each fetch a full 1600 B stage = 2s.
			name: "widen 2x1 to 2x2, clean",
			old:  restart.Assignment{Stages: p2, D: 1},
			new:  restart.Assignment{Stages: p2, D: 2},
			want: restart.Costs{
				Stop:         5 * simtime.Second,
				Redistribute: 2 * simtime.Second,
				Restart:      30 * simtime.Second,
			},
		},
		{
			// Cold start into 2x2: no stop, no flush; every rank fetches
			// its full stage from storage (1600 B = 2s).
			name: "cold start into 2x2",
			new:  restart.Assignment{Stages: p2, D: 2},
			want: restart.Costs{
				Redistribute: 2 * simtime.Second,
				Restart:      30 * simtime.Second,
			},
		},
		{
			// Pure replacement: same shape prices with zero
			// redistribution and, clean, zero flush.
			name: "replacement 2x2, clean",
			old:  restart.Assignment{Stages: p2, D: 2},
			new:  restart.Assignment{Stages: p2, D: 2},
			want: restart.Costs{
				Stop:    5 * simtime.Second,
				Restart: 30 * simtime.Second,
			},
		},
		{
			// Dirty replacement at D=2: checkpoint sharding splits the
			// 1600 B stage across two replicas → 800 B = 1s flush.
			name:  "replacement 2x2, dirty",
			old:   restart.Assignment{Stages: p2, D: 2},
			new:   restart.Assignment{Stages: p2, D: 2},
			dirty: true,
			want: restart.Costs{
				Stop:    5 * simtime.Second,
				Flush:   1 * simtime.Second,
				Restart: 30 * simtime.Second,
			},
		},
	}
	for _, tc := range cases {
		got := m.Price(tc.old, tc.new, tc.dirty)
		if got != tc.want {
			t.Errorf("%s:\n got  %+v\n want %+v", tc.name, got, tc.want)
		}
	}
}

// TestReplacementIsRedistributionFree is the property test: for every
// partition depth of a real model, a same-shape (P, D) replacement
// prices at exactly the redistribution-free restart cost.
func TestReplacementIsRedistributionFree(t *testing.T) {
	spec := model.GPT2XL2B()
	cluster := hw.SpotCluster(hw.NC6v3, 64)
	m := restart.NewModel(spec, cluster)
	cuts, err := model.FindCutPoints(spec, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 5, 9, 18, 32} {
		st, err := model.Partition(spec, cuts, p, true)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for _, d := range []int{1, 2, 7} {
			a := restart.Assignment{Stages: st, D: d}
			for _, dirty := range []bool{false, true} {
				c := m.Price(a, a, dirty)
				if c.Redistribute != 0 {
					t.Fatalf("P=%d D=%d dirty=%v: replacement redistributed %v", p, d, dirty, c.Redistribute)
				}
				wantFlush := c.Flush != 0
				if wantFlush != dirty {
					t.Fatalf("P=%d D=%d: flush %v under dirty=%v", p, d, c.Flush, dirty)
				}
				if got, want := c.Total(), m.StopTime+c.Flush+m.RestartTime; got != want {
					t.Fatalf("P=%d D=%d: total %v, want restart-only %v", p, d, got, want)
				}
			}
		}
	}
}

// TestPriceScalesWithShapeDelta checks the gradient the constant could
// never express: a bigger reshape of the same model moves more state
// and must cost strictly more than a small one.
func TestPriceScalesWithShapeDelta(t *testing.T) {
	spec := model.GPT2XL2B()
	m := restart.NewModel(spec, hw.SpotCluster(hw.NC6v3, 128))
	cuts, err := model.FindCutPoints(spec, 31)
	if err != nil {
		t.Fatal(err)
	}
	part := func(p int) []model.Stage {
		st, err := model.Partition(spec, cuts, p, true)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		return st
	}
	from := restart.Assignment{Stages: part(16), D: 4}
	small := m.Price(from, restart.Assignment{Stages: part(15), D: 4}, false)
	big := m.Price(from, restart.Assignment{Stages: part(4), D: 16}, false)
	if big.Redistribute <= small.Redistribute {
		t.Fatalf("16x4→4x16 redistribution %v not above 16x4→15x4 %v", big.Redistribute, small.Redistribute)
	}
	// Dirty flush is bounded by the largest per-replica shard, which
	// shrinks as D grows.
	d4 := m.Price(from, from, true).Flush
	wide := restart.Assignment{Stages: part(16), D: 8}
	d8 := m.Price(wide, wide, true).Flush
	if d8 >= d4 {
		t.Fatalf("flush at D=8 (%v) should undercut D=4 (%v): sharding splits the write", d8, d4)
	}
}

// TestModelFromManifest ties the pricing model to the checkpoint's own
// byte accounting: a manifest-built model prices from the recorded
// sizes, with absent layers priced as zero.
func TestModelFromManifest(t *testing.T) {
	man := checkpoint.Manifest{Step: 3, Layers: []int{0, 2}, LayerBytes: []int64{100, 300}, NumLayers: 3}
	m := restart.NewModelFromManifest(man, hw.SpotCluster(hw.NC6v3, 4))
	if want := []int64{100, 0, 300}; !reflect.DeepEqual(m.LayerBytes, want) {
		t.Fatalf("LayerBytes = %v, want %v", m.LayerBytes, want)
	}
}

// TestEvenStages pins the contiguous layer→stage reconstruction used
// to cost checkpoints of jobs that are not running.
func TestEvenStages(t *testing.T) {
	st := restart.EvenStages(6, 3)
	want := []model.Stage{
		{Index: 0, FirstOp: 0, LastOp: 1},
		{Index: 1, FirstOp: 2, LastOp: 3},
		{Index: 2, FirstOp: 4, LastOp: 5},
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("EvenStages(6,3) = %+v", st)
	}
	if got := restart.EvenStages(5, 9); len(got) != 5 {
		t.Fatalf("more stages than layers must clamp: %d", len(got))
	}
}

// plannerFor builds a small real Planner through exported APIs only
// (restart_test cannot use autoconfig's internal helpers).
func plannerFor(t *testing.T) (autoconfig.Inputs, *autoconfig.Planner) {
	t.Helper()
	cluster := hw.SpotCluster(hw.NC6v3, 100)
	tb := testbed.New(cluster, 31)
	spec := model.GPT2XL2B()
	params, err := calibrate.Run(spec, tb, calibrate.Options{MicroSizes: []int{4, 8}, GPUsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := model.FindCutPoints(spec, 53)
	if err != nil {
		t.Fatal(err)
	}
	in := autoconfig.Inputs{
		Spec: spec, Cuts: cuts, Params: params,
		GPUMem: 16 << 30, MTotal: 8192, GPUsPerNode: 1,
	}
	return in, autoconfig.NewPlanner(in)
}

// TestPlannerStateRoundTrip is the kill-and-restart acceptance test: a
// planner warmed by real sweeps is persisted with SaveSections, a fresh
// planner (the "restarted manager") loads it, and replaying the same
// decisions performs zero cost-cache recomputations while returning
// bit-identical choices.
func TestPlannerStateRoundTrip(t *testing.T) {
	in, pl := plannerFor(t)
	var want []autoconfig.Choice
	for _, g := range []int{72, 96, 100} {
		c, err := pl.Best(g)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, c)
	}
	if _, err := pl.Best(2); err == nil {
		t.Fatal("2 GPUs must be infeasible")
	}
	dir := t.TempDir()
	if err := restart.SaveSections(dir, restart.Sections{restart.SectionPlanner: pl}); err != nil {
		t.Fatal(err)
	}

	// The restarted manager: a cold planner for the same job.
	fresh := autoconfig.NewPlanner(in)
	found, err := restart.LoadSections(dir, restart.Sections{restart.SectionPlanner: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if !found[restart.SectionPlanner] {
		t.Fatal("saved state not found")
	}
	var got []autoconfig.Choice
	for _, g := range []int{72, 96, 100} {
		c, err := fresh.Best(g)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, c)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("warm-resumed decisions diverged\nwant %+v\ngot  %+v", want, got)
	}
	if _, err := fresh.Best(2); err == nil {
		t.Fatal("memoized infeasibility must survive the round trip")
	}
	s := fresh.Stats()
	if s.Sweeps != 0 || s.CostComputes != 0 || s.SimRuns != 0 {
		t.Fatalf("warm resume recomputed: %+v", s)
	}
	// A fleet size the saved planner never decided still sweeps, and
	// rides the imported cost entries where candidates overlap.
	if _, err := fresh.Best(98); err != nil {
		t.Fatal(err)
	}
	if s := fresh.Stats(); s.Sweeps != 1 {
		t.Fatalf("new fleet size must sweep once, stats %+v", s)
	}
}

// TestLoadStateMissing distinguishes a cold start from a corrupt one.
func TestLoadStateMissing(t *testing.T) {
	_, pl := plannerFor(t)
	found, err := restart.LoadSections(t.TempDir(), restart.Sections{restart.SectionPlanner: pl})
	if err != nil || found[restart.SectionPlanner] {
		t.Fatalf("empty dir: found=%v err=%v, want cold start", found, err)
	}
}

// TestImportStateRejectsOtherModel keeps one job's partition costs from
// ever warming another's — a different model, and equally a different
// batch size of the same model (memoized Nm/Examples bake M_total in).
func TestImportStateRejectsOtherModel(t *testing.T) {
	in, pl := plannerFor(t)
	if _, err := pl.Best(72); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := restart.SaveSections(dir, restart.Sections{restart.SectionPlanner: pl}); err != nil {
		t.Fatal(err)
	}

	halved := in
	halved.MTotal = in.MTotal / 2
	if _, err := restart.LoadSections(dir, restart.Sections{restart.SectionPlanner: autoconfig.NewPlanner(halved)}); err == nil {
		t.Fatal("state for M_total=8192 must not import into an M_total=4096 planner")
	}
	data, err := os.ReadFile(filepath.Join(dir, restart.StateFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty state file")
	}

	cluster := hw.SpotCluster(hw.NC6v3, 100)
	tb := testbed.New(cluster, 31)
	other := model.GPT2Megatron8B()
	params, err := calibrate.Run(other, tb, calibrate.Options{MicroSizes: []int{4, 8}, GPUsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := model.FindCutPoints(other, 53)
	if err != nil {
		t.Fatal(err)
	}
	fresh := autoconfig.NewPlanner(autoconfig.Inputs{
		Spec: other, Cuts: cuts, Params: params,
		GPUMem: 16 << 30, MTotal: 8192, GPUsPerNode: 1,
	})
	if _, err := restart.LoadSections(dir, restart.Sections{restart.SectionPlanner: fresh}); err == nil {
		t.Fatal("state for 2.5B must not import into an 8.3B planner")
	}
}
