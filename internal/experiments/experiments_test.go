package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// testCtx is shared across the package tests, mirroring the job reuse
// of one serial varuna-bench invocation.
var testCtx = NewCtx()

// cell parses a numeric table cell ("1.23", "5.8x", "+9%").
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(strings.TrimPrefix(s, "+"), "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestTableString(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bbbb"}, Notes: []string{"n"}}
	tb.Add("1", "2")
	out := tb.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "note: n") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) < 20 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Run == nil || e.Paper == "" {
			t.Fatalf("malformed entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("fig4"); !ok {
		t.Fatal("ByID(fig4) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID must reject unknown ids")
	}
}

func TestMultiJobExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak")
	}
	tb, err := MultiJob(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 3 {
		t.Fatalf("want >=3 tenant rows, got %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if mb := cell(t, row[2]); mb <= 0 {
			t.Fatalf("tenant %s shows no training: %v", row[0], row)
		}
	}
}

func TestFig4Schedules(t *testing.T) {
	tb, err := Fig4Schedules(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	varuna := cell(t, tb.Rows[0][1])
	gpipe := cell(t, tb.Rows[1][1])
	if varuna >= gpipe {
		t.Fatalf("Varuna makespan %v must beat GPipe %v", varuna, gpipe)
	}
	// Figure 4's strips show Varuna's last stage alternating F/B.
	if !strings.Contains(tb.Figure, "F1 B1 F2 B2") {
		t.Fatalf("missing alternating last stage:\n%s", tb.Figure)
	}
	// And Varuna needs fewer recomputes (none on the last stage).
	if cell(t, tb.Rows[0][2]) >= cell(t, tb.Rows[1][2]) {
		t.Fatal("Varuna must recompute less than GPipe")
	}
}

func TestFig3Availability(t *testing.T) {
	tb, err := Fig3Availability(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	one := cell(t, tb.Rows[0][1])
	four := cell(t, tb.Rows[1][1])
	if one <= four {
		t.Fatalf("1-GPU mean %v must exceed 4-GPU mean %v", one, four)
	}
}

func TestFig9Convergence(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tb, err := Fig9Convergence(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	base := cell(t, tb.Rows[0][3])
	big := cell(t, tb.Rows[1][3])
	morph := cell(t, tb.Rows[2][3])
	if big > base*1.25 {
		t.Fatalf("16x batch held-out loss %v too far above baseline %v", big, base)
	}
	if morph > big*1.01 || morph < big*0.99 {
		t.Fatalf("morphing changed the outcome: %v vs %v", morph, big)
	}
}

func TestFig10TwoBW(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tb, err := Fig10TwoBW(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	final := func(label string) float64 {
		t.Helper()
		for _, row := range tb.Rows {
			if strings.HasPrefix(row[0], label) {
				return cell(t, row[1])
			}
		}
		t.Fatalf("no %q row in %v", label, tb.Rows)
		return 0
	}
	syncFinal := final("synchronous")
	for _, label := range []string{"2BW delayed", "stale per-micro"} {
		staleFinal := final(label)
		if !(staleFinal != staleFinal /* NaN */ || staleFinal > syncFinal*1.5) {
			t.Errorf("%s updates should degrade: sync %v, stale %v", label, syncFinal, staleFinal)
		}
	}
}

func TestSharedStateTracer(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tb, err := SharedStateTracer(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Rows[0][1], "embedding.W") {
		t.Fatalf("tracer did not flag tied embedding: %v", tb.Rows[0])
	}
	goodDrift := cell(t, tb.Rows[0][2])
	badDrift := cell(t, tb.Rows[1][2])
	if badDrift < 1e3*goodDrift {
		t.Fatalf("unsynced drift %v should dwarf synced %v", badDrift, goodDrift)
	}
}

func TestTable6Pipelines(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy testbed experiment")
	}
	tb, err := Table6Pipelines(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		varuna := cell(t, row[1])
		deepspeed := cell(t, row[2])
		if varuna <= deepspeed {
			t.Errorf("%s: Varuna %v must beat DeepSpeed %v", row[0], varuna, deepspeed)
		}
		if row[4] != "OOM" {
			t.Errorf("%s: PipeDream must OOM, got %v", row[0], row[4])
		}
	}
}

func TestTable7SimAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy testbed experiment")
	}
	tb, err := Table7SimAccuracy(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if e := cell(t, row[4]); e > 12 {
			t.Errorf("%s %s: simulator error %.1f%% too high", row[0], row[1], e)
		}
	}
}

func TestFig5Ratio(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy testbed experiment")
	}
	tb, err := Fig5GPT8B(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		ratio := cell(t, row[5])
		if ratio < 5 {
			t.Errorf("G=%s: Varuna/Megatron commodity ratio %.1f, expected order-of-magnitude (paper 18x)", row[0], ratio)
		}
		varunaLP := cell(t, row[1])
		megHC := cell(t, row[4])
		if varunaLP < megHC*0.8 {
			t.Errorf("G=%s: Varuna(LP) %.3f should rival Megatron(HC) %.3f", row[0], varunaLP, megHC)
		}
	}
}

func TestPlannerCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy sweep experiment")
	}
	tb, err := PlannerCaching(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	// The cached sweep must rebuild nothing.
	if tb.Rows[1][3] != "0" || tb.Rows[1][4] != "0" {
		t.Fatalf("cached sweep recomputed: %v", tb.Rows[1])
	}
	if !strings.Contains(strings.Join(tb.Notes, "\n"), "bit-identical to first: true") {
		t.Fatalf("cached sweep not bit-identical:\n%v", tb.Notes)
	}
	// The cold bounded Best (whose pick the experiment checks against
	// the sweep's argmax) must skip depths and simulate fewer
	// candidates than the cold sweep.
	if cell(t, tb.Rows[2][5]) == 0 || cell(t, tb.Rows[2][4]) >= cell(t, tb.Rows[0][4]) {
		t.Fatalf("bounded Best skipped nothing: %v vs %v", tb.Rows[2], tb.Rows[0])
	}
	// Wall-clock acceptance: the cached sweep must be at least 2x
	// faster (in practice it is orders of magnitude; 2x keeps the
	// assertion robust on loaded CI machines).
	cold := cell(t, tb.Rows[0][1])
	warm := cell(t, tb.Rows[1][1])
	if warm*2 > cold {
		t.Fatalf("cached sweep %.1fms not 2x faster than cold %.1fms", warm, cold)
	}
}
