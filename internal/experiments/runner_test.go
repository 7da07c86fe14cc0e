package experiments

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// lightEntries picks experiments that run in well under a second, so
// the runner paths get exercised without testbed calibration cost.
func lightEntries(t *testing.T) []Entry {
	t.Helper()
	var out []Entry
	for _, id := range []string{"fig3", "fig4"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		out = append(out, e)
	}
	return out
}

func TestRunEntriesSerialStreamsInOrder(t *testing.T) {
	entries := lightEntries(t)
	var order []string
	reports := RunEntriesWith(entries, RunOptions{Workers: 1}, func(r Report) { order = append(order, r.ID) })
	if len(reports) != len(entries) {
		t.Fatalf("%d reports for %d entries", len(reports), len(entries))
	}
	for i, e := range entries {
		if order[i] != e.ID || reports[i].ID != e.ID {
			t.Fatalf("order %v, want registry order", order)
		}
		if !reports[i].OK || reports[i].Table == nil {
			t.Fatalf("%s failed: %s", e.ID, reports[i].Error)
		}
		if reports[i].WallMS < 0 {
			t.Fatalf("%s: negative wall time", e.ID)
		}
	}
}

func TestRunEntriesParallelMatchesSerial(t *testing.T) {
	entries := lightEntries(t)
	serial := RunEntriesWith(entries, RunOptions{Workers: 1}, nil)
	var order []string
	parallel := RunEntriesWith(entries, RunOptions{Workers: 4}, func(r Report) { order = append(order, r.ID) })
	for i := range entries {
		if order[i] != entries[i].ID {
			t.Fatalf("parallel onDone order %v, want registry order", order)
		}
		if !parallel[i].OK {
			t.Fatalf("%s failed in parallel: %s", parallel[i].ID, parallel[i].Error)
		}
		// fig3/fig4 are pure simulation: isolated contexts must yield
		// the exact same tables as the serial shared context.
		if parallel[i].Table.String() != serial[i].Table.String() {
			t.Fatalf("%s diverged between serial and parallel runs", entries[i].ID)
		}
	}
}

// TestRunEntriesSlowSinkDoesNotSerialize proves the onDone sink runs
// outside the runner's lock: while one worker is stuck in a slow sink
// call, the others must still be able to claim and start new entries.
// Before the fix the sink was invoked with the mutex held, so no
// entry could start during a sink call (claiming an index needs the
// lock) and a slow stdout consumer serialized the whole parallel run.
func TestRunEntriesSlowSinkDoesNotSerialize(t *testing.T) {
	const n = 8
	var (
		mu        sync.Mutex
		sinkSpans [][2]time.Time
		runStarts []time.Time
	)
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{
			ID:    fmt.Sprintf("e%d", i),
			Paper: "none",
			Run: func(*Ctx) (*Table, error) {
				mu.Lock()
				runStarts = append(runStarts, time.Now())
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				return &Table{Title: "t"}, nil
			},
		}
	}
	slowSink := func(Report) {
		start := time.Now()
		time.Sleep(50 * time.Millisecond)
		mu.Lock()
		sinkSpans = append(sinkSpans, [2]time.Time{start, time.Now()})
		mu.Unlock()
	}
	reports := RunEntriesWith(entries, RunOptions{Workers: 2}, slowSink)
	for _, r := range reports {
		if !r.OK {
			t.Fatalf("%s failed: %s", r.ID, r.Error)
		}
	}
	// At least one entry must have STARTED while a sink call was in
	// flight (with a 5ms margin against scheduling races at the window
	// edges). With the sink under the lock this is impossible.
	margin := 5 * time.Millisecond
	overlaps := 0
	for _, start := range runStarts {
		for _, span := range sinkSpans {
			if start.After(span[0].Add(margin)) && start.Before(span[1].Add(-margin)) {
				overlaps++
			}
		}
	}
	if overlaps == 0 {
		t.Fatalf("no entry started during any of the %d slow sink calls: the sink serialized the run", len(sinkSpans))
	}
}

// TestRunEntriesWithIsolation pins the Ctx-sharing semantics the
// -parallel flag relies on: serial shared mode hands every entry the
// same Ctx, while Isolated mode — even with one worker, as on a 1-CPU
// machine resolving -parallel 0 — hands each entry its own.
func TestRunEntriesWithIsolation(t *testing.T) {
	seen := make(map[*Ctx]int)
	var mu sync.Mutex
	entries := []Entry{}
	for i := 0; i < 3; i++ {
		entries = append(entries, Entry{
			ID:    fmt.Sprintf("ctx%d", i),
			Paper: "none",
			Run: func(x *Ctx) (*Table, error) {
				mu.Lock()
				seen[x]++
				mu.Unlock()
				return &Table{Title: "t"}, nil
			},
		})
	}
	RunEntriesWith(entries, RunOptions{Workers: 1}, nil)
	if len(seen) != 1 {
		t.Fatalf("serial shared mode used %d contexts, want 1", len(seen))
	}
	seen = make(map[*Ctx]int)
	RunEntriesWith(entries, RunOptions{Workers: 1, Isolated: true}, nil)
	if len(seen) != len(entries) {
		t.Fatalf("isolated serial mode used %d contexts, want %d", len(seen), len(entries))
	}
	seen = make(map[*Ctx]int)
	RunEntriesWith(entries, RunOptions{Workers: 4, Isolated: true}, nil)
	if len(seen) != len(entries) {
		t.Fatalf("parallel mode used %d contexts, want %d", len(seen), len(entries))
	}
}

func TestRunEntriesReportsErrors(t *testing.T) {
	entries := []Entry{{
		ID:    "boom",
		Paper: "none",
		Run:   func(*Ctx) (*Table, error) { return nil, fmt.Errorf("kaput") },
	}}
	reports := RunEntriesWith(entries, RunOptions{Workers: 2}, nil)
	if reports[0].OK || reports[0].Error != "kaput" {
		t.Fatalf("error not reported: %+v", reports[0])
	}
}
