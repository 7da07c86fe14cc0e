// Package gantt renders pipeline execution traces as text Gantt charts
// (the Figure 7 visualization) and schedule order strips (Figure 4).
package gantt

import (
	"fmt"
	"strings"

	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// taskRune maps a task kind to its chart glyph: forward '▒' (red in
// the paper), backward '█' (green), recompute '░' (orange).
func taskRune(k schedule.Kind) rune {
	switch k {
	case schedule.Forward:
		return '▒'
	case schedule.Backward:
		return '█'
	case schedule.Recompute:
		return '░'
	default:
		return '?'
	}
}

// Render draws the trace as one row per stage over width columns,
// earliest stage on top. Idle time is '·'.
func Render(trace []sim.TaskSpan, depth int, width int) string {
	if width < 10 {
		width = 10
	}
	var end simtime.Time
	for _, s := range trace {
		if s.End > end {
			end = s.End
		}
	}
	if end == 0 {
		return ""
	}
	rows := make([][]rune, depth)
	for i := range rows {
		rows[i] = []rune(strings.Repeat("·", width))
	}
	for _, s := range trace {
		lo := int(int64(s.Start) * int64(width) / int64(end))
		hi := int(int64(s.End) * int64(width) / int64(end))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		r := taskRune(s.Task.Kind)
		for c := lo; c < hi; c++ {
			rows[s.Stage][c] = r
		}
	}
	var b strings.Builder
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "S%-3d %s\n", i+1, string(rows[i]))
	}
	fmt.Fprintf(&b, "     0%s%v\n", strings.Repeat(" ", width-10), simtime.Duration(end))
	fmt.Fprintf(&b, "     ▒ forward  █ backward  ░ recompute  · idle\n")
	return b.String()
}

// OrderStrips renders the per-stage task orders the way Figure 4
// prints them (S1 at the bottom).
func OrderStrips(s *schedule.Schedule) string {
	var b strings.Builder
	for st := s.Depth - 1; st >= 0; st-- {
		fmt.Fprintf(&b, "S%d %s\n", st+1, s.Orders[st])
	}
	return b.String()
}

// Seg is one labeled interval of a wall-clock timeline strip.
type Seg struct {
	Start, End simtime.Time
	Glyph      rune
}

// Strip renders intervals onto one width-column row covering [0, end]
// — the single-row Gantt used for morphing-timeline ablations (uptime
// vs reconfiguration downtime vs dead fleet). Later segments overwrite
// earlier ones; uncovered columns stay '·'.
func Strip(segs []Seg, end simtime.Time, width int) string {
	if width < 10 {
		width = 10
	}
	if end <= 0 {
		return strings.Repeat("·", width)
	}
	row := []rune(strings.Repeat("·", width))
	for _, s := range segs {
		if s.End <= s.Start || s.End <= 0 {
			continue
		}
		lo := int(int64(s.Start) * int64(width) / int64(end))
		hi := int(int64(s.End) * int64(width) / int64(end))
		if lo < 0 {
			lo = 0 // segment begins before the strip: clamp, don't drop
		}
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		for c := lo; c < hi; c++ {
			row[c] = s.Glyph
		}
	}
	return string(row)
}
