package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/manager"
	"repro/internal/price"
	"repro/internal/scenario"
	"repro/internal/simtime"
	"repro/internal/spot"
)

// SpotDollars prices the Figure 8 scenario in dollars: the same
// bursty 24-hour spot trace under a stochastic mean-reverting price
// curve, replayed under all three morph objectives —
//
//   - max throughput (the paper's rule: dollars are only accounted),
//   - min $/example (idle capacity released, marginal replicas shed
//     through price spikes, morphs settled by dollar surplus), and
//   - deadline (a 50%-of-flat-out target by the horizon, bought as
//     cheaply as possible).
//
// Each run is the committed spot-dollars.yaml scenario with its
// objective swapped. The trace, curve and every seed are identical
// across runs, so the dollar columns differ only by objective. The
// experiment errors if min-$/example fails to spend strictly fewer
// dollars per example than max throughput — the invariant the
// objective exists to enforce — or if the deadline run misses its
// target.
//
// A closing note prices the same job across two VM kinds
// (cheap-but-volatile 1-GPU vs pricier-but-stable 4-GPU) with
// price.ChooseMarket, feeding it the per-kind preemption hazards a
// GapEstimator observes on each market's own trace.
func SpotDollars(x *Ctx) (*Table, error) {
	type run struct {
		name      string
		objective string
		stats     manager.Stats
	}
	runs := []*run{
		{name: "max-throughput", objective: "max-throughput"},
		{name: "min-$/example", objective: "min-dollar-per-example"},
		{name: "deadline (50%)", objective: "deadline"},
	}
	var res *scenario.Result
	for _, r := range runs {
		var err error
		res, err = x.runScenario("spot-dollars.yaml", func(rs *scenario.RunSpec) {
			rs.Objective = r.objective
			if r.objective == "deadline" {
				// Target 50% of what flat-out training achieved, due
				// at the horizon — runs[0] has already executed.
				rs.TargetExamples = 0.5 * runs[0].stats.Examples
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		r.stats = res.Stats
	}
	job, curve, horizon := res.Compiled.Job, res.Compiled.Opts.Prices, res.Compiled.Horizon

	t := &Table{
		Title:  "Dollar objectives: 2.5B on the 24h Figure 8 trace, mean-reverting spot price ($2.40/GPU·h mean)",
		Header: []string{"Objective", "Examples", "Dollars", "$/k-ex", "Compute$", "Reconfig$", "Idle$", "Holds", "Released"},
	}
	for _, r := range runs {
		s := r.stats
		t.Add(r.name,
			fmt.Sprintf("%.2fM", s.Examples/1e6),
			fmt.Sprintf("%.0f", s.DollarsSpent),
			fmt.Sprintf("%.2f", 1000*s.DollarsPerExample()),
			fmt.Sprintf("%.0f", s.DollarsCompute),
			fmt.Sprintf("%.0f", s.DollarsReconfig),
			fmt.Sprintf("%.0f", s.DollarsIdle),
			fmt.Sprint(s.Holds),
			fmt.Sprint(s.VMsReleased))
	}
	t.Figure = priceStrip(curve, horizon)

	thru, dollar, dead := runs[0].stats, runs[1].stats, runs[2].stats
	t.Notes = append(t.Notes,
		fmt.Sprintf("min-$/example buys examples at $%.2f/k vs $%.2f/k flat out (%.0f%% cheaper), releasing %d VMs across price spikes",
			1000*dollar.DollarsPerExample(), 1000*thru.DollarsPerExample(),
			100*(1-dollar.DollarsPerExample()/thru.DollarsPerExample()), dollar.VMsReleased),
		fmt.Sprintf("deadline run met %.2fM of its %.2fM target spending $%.0f vs $%.0f flat out",
			dead.Examples/1e6, 0.5*thru.Examples/1e6, dead.DollarsSpent, thru.DollarsSpent))
	if note, err := chooseMarketNote(job, curve, horizon); err == nil {
		t.Notes = append(t.Notes, note)
	} else {
		return t, err
	}

	if dollar.DollarsPerExample() >= thru.DollarsPerExample() {
		return t, fmt.Errorf("spot-dollars: min-$/example %.4g did not undercut max-throughput %.4g $/ex",
			dollar.DollarsPerExample(), thru.DollarsPerExample())
	}
	if dead.Examples < 0.5*thru.Examples {
		return t, fmt.Errorf("spot-dollars: deadline run missed its target: %.0f < %.0f",
			dead.Examples, 0.5*thru.Examples)
	}
	return t, nil
}

// chooseMarketNote prices the job across two VM kinds with
// ChooseMarket: a fresh copy of the 1-GPU market the run trained on
// (cheap, volatile) against a 4-GPU market (priced 25% higher, but
// preempted far less). Per-kind hazards come from GapEstimators fed
// each market's own 24-hour event trace — the "existing per-kind
// hazards" seam.
func chooseMarketNote(job *core.Job, curve *price.Curve, horizon simtime.Duration) (string, error) {
	oneGPU := spot.NewMarket(1, 120, 55)
	oneGPU.Prices = curve
	fourGPU := spot.NewMarket(4, 120, 57)
	fourGPU.MeanHold = 16 * simtime.Hour // dedicated blocks are reclaimed rarely
	stable, err := price.FromSteps([]price.Step{{At: 0, PerGPUHour: curve.Mean(0, simtime.Time(horizon)) * 1.25}})
	if err != nil {
		return "", err
	}
	fourGPU.Prices = stable
	c, err := job.BestConfig(144)
	if err != nil {
		return "", err
	}

	kinds := make([]price.Kind, 0, 2)
	for _, m := range []struct {
		mk   *spot.Market
		name string
	}{
		{oneGPU, "1-GPU volatile"},
		{fourGPU, "4-GPU stable"},
	} {
		gaps := spot.NewGapEstimator(30 * simtime.Minute)
		for _, e := range spot.EventTrace(m.mk, 144, horizon, 10*simtime.Minute) {
			gaps.ObserveKind(e.At, e.Kind)
		}
		// Restart price of the forced reconfiguration each preemption
		// triggers, at the chosen shape.
		kinds = append(kinds, m.mk.KindFor(m.name, 144, c.TotalExPerSec(), gaps,
			4*simtime.Minute))
	}
	best, scores := price.ChooseMarket(horizon, kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "market chooser: ")
	for i, k := range kinds {
		if i > 0 {
			b.WriteString(" vs ")
		}
		fmt.Fprintf(&b, "%s $%.2f/kex", k.Name, 1000*scores[i])
	}
	fmt.Fprintf(&b, " → %s", kinds[best].Name)
	return b.String(), nil
}

// priceStrip renders the price curve as a coarse text chart over the
// horizon.
func priceStrip(c *price.Curve, horizon simtime.Duration) string {
	const cols = 96
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	lo, hi := c.At(0), c.At(0)
	for i := 0; i < cols; i++ {
		p := c.At(simtime.Time(int64(horizon) * int64(i) / cols))
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "$/GPU·h ")
	for i := 0; i < cols; i++ {
		p := c.At(simtime.Time(int64(horizon) * int64(i) / cols))
		g := 0
		if hi > lo {
			g = int((p - lo) / (hi - lo) * float64(len(glyphs)-1))
		}
		if g >= len(glyphs) {
			g = len(glyphs) - 1
		}
		if g < 0 {
			g = 0
		}
		b.WriteRune(glyphs[g])
	}
	fmt.Fprintf(&b, "  [%.2f–%.2f]\n", lo, hi)
	return b.String()
}
