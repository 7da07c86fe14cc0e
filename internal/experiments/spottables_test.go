package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSpotTablesGolden runs fig8, restart-cost and spot-dollars in one
// Ctx, in registry order, the way a serial varuna-bench invocation
// does, and requires each table to render byte for byte as recorded in
// testdata/<id>.table.txt. The three runs share one calibrated job and
// planner; none of the tables has a wall-clock column.
func TestSpotTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three spot-market timelines")
	}
	x := NewCtx()
	for _, id := range []string{"fig8", "restart-cost", "spot-dollars"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		tb, err := e.Run(x)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".table.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := tb.String(); got != string(want) {
			t.Errorf("%s table diverged from its golden:\n%s", id, got)
		}
	}
}
