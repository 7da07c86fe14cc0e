package gantt

import (
	"strings"
	"testing"

	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/simtime"
)

func trace(t *testing.T) ([]sim.TaskSpan, int) {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Depth: 4, Micros: 5, Policy: schedule.Varuna,
		Costs: sim.UnitCosts(4, simtime.Millisecond), CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace, 4
}

func TestRenderShape(t *testing.T) {
	tr, depth := trace(t)
	out := Render(tr, depth, 60)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != depth+2 {
		t.Fatalf("got %d lines, want %d rows + axis + legend", len(lines), depth+2)
	}
	if !strings.HasPrefix(lines[0], "S1") || !strings.HasPrefix(lines[3], "S4") {
		t.Fatalf("row labels wrong:\n%s", out)
	}
	// Last stage never recomputes under Varuna.
	if strings.ContainsRune(lines[3], '░') {
		t.Fatalf("S4 shows recompute:\n%s", out)
	}
	// Other stages do.
	if !strings.ContainsRune(lines[0], '░') {
		t.Fatalf("S1 shows no recompute:\n%s", out)
	}
	if Render(nil, 2, 40) != "" {
		t.Fatal("empty trace must render empty")
	}
	// Narrow widths clamp rather than panic.
	if Render(tr, depth, 1) == "" {
		t.Fatal("narrow render must still work")
	}
}

func TestOrderStrips(t *testing.T) {
	s, err := schedule.GPipe(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := OrderStrips(s)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines", len(lines))
	}
	// Figure 4 layout: S3 on top, S1 at the bottom.
	if !strings.HasPrefix(lines[0], "S3") || !strings.HasPrefix(lines[2], "S1") {
		t.Fatalf("strip order wrong:\n%s", out)
	}
	if !strings.Contains(lines[2], "F1 F2 B2 R1 B1") {
		t.Fatalf("S1 order wrong:\n%s", out)
	}
}

// TestStripGolden pins Strip's exact rendering: segment projection,
// later-segment overwrite, sub-column widening, clamping of segments
// that start before the strip, and the all-idle fallbacks.
func TestStripGolden(t *testing.T) {
	segs := []Seg{
		{Start: 0, End: 10, Glyph: '█'},  // [0,10) of 40 → cols 0-4
		{Start: 10, End: 12, Glyph: '▒'}, // thin → widened to 1 col
		{Start: 20, End: 40, Glyph: '█'}, // back half
		{Start: 30, End: 34, Glyph: '░'}, // overwrites part of it
		{Start: -4, End: 2, Glyph: 'x'},  // clamped, overwrites col 0
		{Start: 16, End: 14, Glyph: '?'}, // inverted: dropped
	}
	got := Strip(segs, 40, 20)
	want := "x████▒····█████░░███"
	if got != want {
		t.Fatalf("Strip drifted:\n got %q\nwant %q", got, want)
	}
	if got := Strip(nil, 40, 20); got != strings.Repeat("·", 20) {
		t.Fatalf("empty strip %q", got)
	}
	if got := Strip(segs, 0, 20); got != strings.Repeat("·", 20) {
		t.Fatalf("zero-horizon strip %q", got)
	}
	// Narrow widths clamp to 10 columns rather than collapse.
	if got := Strip(segs, 40, 3); len([]rune(got)) != 10 {
		t.Fatalf("narrow strip %q", got)
	}
}
