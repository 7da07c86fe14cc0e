package experiments

import (
	"fmt"
	"strings"

	"repro/internal/gantt"
	"repro/internal/manager"
	"repro/internal/scenario"
	"repro/internal/simtime"
)

// RestartCost ablates reconfiguration pricing on the Figure 8 scenario:
// the same bursty 24-hour spot trace replayed under
//
//   - the paper's flat 4-minute constant per morph (§4.6 as written),
//   - restart.Model-priced downtime (checkpoint flush + state
//     redistribution + process restart, always morphing), and
//   - modeled pricing plus morph-or-hold (declining reconfigurations
//     whose downtime exceeds the discounted throughput gain before the
//     next expected fleet event).
//
// Each run is the committed restart-cost.yaml scenario with its policy
// swapped. The trace, market and manager seeds are identical across
// runs, and each run measures on a fresh identically-seeded testbed,
// so every difference in the downtime columns is the pricing policy.
// The experiment errors if morph-or-hold fails to strictly reduce
// reconfiguration downtime versus always-morphing — the invariant the
// cost-aware decision exists to enforce.
func RestartCost(x *Ctx) (*Table, error) {
	type run struct {
		name   string
		policy string
		points []manager.TimelinePoint
		stats  manager.Stats
	}
	runs := []*run{
		{name: "constant 4min", policy: "constant"},
		{name: "modeled", policy: "modeled"},
		{name: "morph-or-hold", policy: "morph-or-hold"},
	}
	var horizon simtime.Duration
	for _, r := range runs {
		res, err := x.runScenario("restart-cost.yaml", func(rs *scenario.RunSpec) { rs.Policy = r.policy })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		r.points, r.stats, horizon = res.Points, res.Stats, res.Compiled.Horizon
	}

	t := &Table{
		Title:  "Reconfiguration cost: constant vs modeled vs morph-or-hold, 2.5B on the 24h Figure 8 trace",
		Header: []string{"Policy", "Morphs", "Repl", "Holds", "Morph downtime", "Total downtime", "Examples"},
	}
	for _, r := range runs {
		t.Add(r.name,
			fmt.Sprint(r.stats.Morphs), fmt.Sprint(r.stats.Replacements), fmt.Sprint(r.stats.Holds),
			r.stats.MorphDowntime.String(), r.stats.Downtime.String(),
			fmt.Sprintf("%.2fM", r.stats.Examples/1e6))
	}

	var fig strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&fig, "%-14s %s\n", r.name, gantt.Strip(timelineSegs(r.points, horizon), simtime.Time(horizon), 96))
	}
	fig.WriteString("               █ training  ▒ reconfiguration downtime  · fleet down/idle\n")
	t.Figure = fig.String()

	constant, modeled, hold := runs[0].stats, runs[1].stats, runs[2].stats
	restarts := modeled.Morphs + modeled.Replacements
	avg := simtime.Duration(0)
	if restarts > 0 {
		avg = modeled.MorphDowntime / simtime.Duration(restarts)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("modeled price averages %v per restart vs the flat %v constant", avg, 4*simtime.Minute),
		fmt.Sprintf("morph-or-hold declined %d reconfigurations, cutting reconfiguration downtime %v → %v (constant policy: %v)",
			hold.Holds, modeled.MorphDowntime, hold.MorphDowntime, constant.MorphDowntime))
	if hold.MorphDowntime >= modeled.MorphDowntime {
		return t, fmt.Errorf("restart-cost: morph-or-hold downtime %v did not improve on always-morph %v",
			hold.MorphDowntime, modeled.MorphDowntime)
	}
	if hold.Holds == 0 {
		return t, fmt.Errorf("restart-cost: the bursty trace produced no hold decisions")
	}
	return t, nil
}

// timelineSegs converts a manager timeline into strip segments:
// training between points, the charged reconfiguration downtime before
// each morph point, idle after a dead-fleet point.
func timelineSegs(points []manager.TimelinePoint, horizon simtime.Duration) []gantt.Seg {
	var segs []gantt.Seg
	prev := simtime.Time(0)
	running := false
	for _, p := range points {
		start := p.At.Add(-p.Downtime)
		if running && start > prev {
			segs = append(segs, gantt.Seg{Start: prev, End: start, Glyph: '█'})
		}
		if p.Downtime > 0 {
			segs = append(segs, gantt.Seg{Start: start, End: p.At, Glyph: '▒'})
		}
		running = p.Event != "down"
		prev = p.At
	}
	if running && simtime.Time(horizon) > prev {
		segs = append(segs, gantt.Seg{Start: prev, End: simtime.Time(horizon), Glyph: '█'})
	}
	return segs
}
