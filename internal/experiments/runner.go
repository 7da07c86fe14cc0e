package experiments

import (
	"sync"
	"time"
)

// Report is the machine-readable record of one experiment execution,
// serialized by varuna-bench as BENCH_<id>.json so the repository's
// perf trajectory is tracked run over run.
type Report struct {
	// ID is the experiment's registry id.
	ID string `json:"id"`
	// Paper locates the reproduced result in the paper.
	Paper string `json:"paper"`
	// WallMS is the experiment's wall-clock runtime in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// OK reports whether the experiment completed without error.
	OK bool `json:"ok"`
	// Error holds the failure message when OK is false.
	Error string `json:"error,omitempty"`
	// Table is the rendered result (not serialized; the text artifact
	// is the table printed by the caller).
	Table *Table `json:"-"`
}

func runOne(e Entry, x *Ctx) Report {
	start := time.Now()
	t, err := e.Run(x)
	r := Report{
		ID:     e.ID,
		Paper:  e.Paper,
		WallMS: float64(time.Since(start).Microseconds()) / 1000,
		OK:     err == nil,
		Table:  t,
	}
	if err != nil {
		r.Error = err.Error()
	}
	return r
}

// RunOptions controls RunEntriesWith execution.
type RunOptions struct {
	// Workers is the number of experiments run concurrently (values
	// below 1 mean 1).
	Workers int
	// Isolated gives every experiment its own Ctx, so results are
	// deterministic regardless of scheduling — at the price of
	// re-calibrating jobs a shared-Ctx run would reuse. Workers > 1
	// always isolates (a shared Ctx's testbed RNG is neither
	// goroutine-safe nor order-independent); Isolated with one worker
	// reproduces the parallel run's numbers serially, which is how a
	// 1-CPU machine gets the same semantics as everyone else.
	Isolated bool
}

// RunEntriesWith executes the given experiments and returns their
// reports in entry order. onDone, when non-nil, receives each report in
// entry order as soon as it and all its predecessors have finished, so
// a serial run streams results as they complete. The sink is always
// invoked outside the runner's internal lock: a slow consumer delays
// the stream, never the experiments.
//
// One worker runs serially with one shared Ctx, so calibrated jobs are
// reused across experiments, unless opts.Isolated. More workers run up
// to that many experiments concurrently, each with its own Ctx (see
// RunOptions.Isolated for the determinism trade).
func RunEntriesWith(entries []Entry, opts RunOptions, onDone func(Report)) []Report {
	reports := make([]Report, len(entries))
	if onDone == nil {
		onDone = func(Report) {}
	}
	workers := opts.Workers
	if workers > len(entries) {
		workers = len(entries)
	}
	if workers <= 1 {
		x := NewCtx()
		for i, e := range entries {
			if opts.Isolated {
				x = NewCtx()
			}
			reports[i] = runOne(e, x)
			onDone(reports[i])
		}
		return reports
	}

	var (
		mu       sync.Mutex
		done     = make([]bool, len(entries))
		frontier int
		next     int
		flushing bool
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(entries) {
					return
				}
				r := runOne(entries[i], NewCtx())
				mu.Lock()
				reports[i] = r
				done[i] = true
				// Flush the contiguous completed prefix in order. One
				// worker at a time drains it, releasing the lock around
				// each sink call so the other workers keep claiming and
				// running entries while a slow consumer prints; reports
				// completed mid-drain are picked up when the drainer
				// re-checks the frontier under the lock.
				if !flushing {
					flushing = true
					for frontier < len(entries) && done[frontier] {
						rep := reports[frontier]
						frontier++
						mu.Unlock()
						onDone(rep)
						mu.Lock()
					}
					flushing = false
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return reports
}
