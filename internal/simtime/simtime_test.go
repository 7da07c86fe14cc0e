package simtime

import (
	"testing"
	"testing/quick"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500µs"},
		{2500, "2.500ms"},
		{3 * Second, "3.000s"},
		{90 * Minute, "1.50h"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(2 * Second)
	if t1.Sub(t0) != 2*Second {
		t.Fatalf("Sub = %v, want 2s", t1.Sub(t0))
	}
	if t1.Seconds() != 2 {
		t.Fatalf("Seconds = %v, want 2", t1.Seconds())
	}
	if Max(t0, t1) != t1 || Min(t0, t1) != t0 {
		t.Fatal("Max/Min wrong")
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	if err := quick.Check(func(ms uint16) bool {
		d := FromSeconds(float64(ms) / 1000)
		return d == Duration(ms)*Millisecond
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestJitterProperties(t *testing.T) {
	r := NewRand(1)
	base := 10 * Millisecond
	for i := 0; i < 1000; i++ {
		j := r.Jitter(base, 0.2)
		if j < base/2 {
			t.Fatalf("jitter produced %v, below floor %v", j, base/2)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("cv=0 must be identity")
	}
	if r.Jitter(0, 0.5) != 0 {
		t.Fatal("zero duration must stay zero")
	}
}

func TestJitterMeanNearOne(t *testing.T) {
	r := NewRand(7)
	base := Second
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(r.Jitter(base, 0.1))
	}
	mean := sum / n / float64(Second)
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("jitter mean = %v, want ≈1", mean)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield same stream")
		}
	}
}

// recorder registers a callback on q that appends its first argument
// to a list, the call-path stand-in for a closure per event.
func recorder(q *EventQueue) (Handle, *[]int32) {
	var got []int32
	return q.Register(func(a, _ int32) { got = append(got, a) }), &got
}

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue
	h, got := recorder(&q)
	q.ScheduleCall(30, h, 3, 0)
	q.ScheduleCall(10, h, 1, 0)
	q.ScheduleCall(20, h, 2, 0)
	q.Run(0)
	if g := *got; len(g) != 3 || g[0] != 1 || g[1] != 2 || g[2] != 3 {
		t.Fatalf("events fired out of order: %v", g)
	}
	if q.Now() != 30 {
		t.Fatalf("Now = %v, want 30", q.Now())
	}
}

func TestEventQueueFIFOAtSameTime(t *testing.T) {
	var q EventQueue
	h, got := recorder(&q)
	for i := 0; i < 50; i++ {
		q.ScheduleCall(5, h, int32(i), 0)
	}
	q.Run(0)
	for i, v := range *got {
		if v != int32(i) {
			t.Fatalf("same-time events must fire FIFO, got %v", *got)
		}
	}
}

func TestEventQueueCascade(t *testing.T) {
	var q EventQueue
	count := 0
	var step Handle
	step = q.Register(func(_, _ int32) {
		count++
		if count < 10 {
			q.ScheduleCall(q.Now().Add(Millisecond), step, 0, 0)
		}
	})
	q.ScheduleCall(0, step, 0, 0)
	end := q.Run(0)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if end != Time(9*Millisecond) {
		t.Fatalf("end = %v, want 9ms", end)
	}
}

func TestEventQueueHorizon(t *testing.T) {
	var q EventQueue
	h, got := recorder(&q)
	q.ScheduleCall(Time(Second), h, 1, 0)
	q.ScheduleCall(Time(3*Second), h, 3, 0)
	end := q.Run(Time(2 * Second))
	if len(*got) != 1 {
		t.Fatalf("fired = %d, want 1", len(*got))
	}
	if end != Time(2*Second) {
		t.Fatalf("end = %v, want horizon", end)
	}
	if q.Len() != 1 {
		t.Fatalf("pending = %d, want 1", q.Len())
	}
}

func TestSchedulePastClamped(t *testing.T) {
	var q EventQueue
	var at Time
	late := q.Register(func(_, _ int32) { at = q.Now() })
	first := q.Register(func(_, _ int32) {
		q.ScheduleCall(10, late, 0, 0) // in the past
	})
	q.ScheduleCall(100, first, 0, 0)
	q.Run(0)
	if at != 100 {
		t.Fatalf("past event fired at %v, want clamp to 100", at)
	}
}

// TestScheduleCallOrderingInterleaved: two callbacks registered on one
// queue — the arbiter's tick and a manager's step share the fleet
// queue this way — must fire in one (time, seq) order, each event into
// its own callback.
func TestScheduleCallOrderingInterleaved(t *testing.T) {
	var q EventQueue
	var got []int32
	tick := q.Register(func(a, _ int32) { got = append(got, a) })
	step := q.Register(func(a, _ int32) { got = append(got, -a) })
	q.ScheduleCall(5, tick, 1, 0)
	q.ScheduleCall(5, step, 2, 0)
	q.ScheduleCall(5, tick, 3, 0)
	q.ScheduleCall(3, step, 4, 0)
	q.ScheduleCall(5, step, 5, 0)
	q.Run(0)
	want := []int32{-4, 1, -2, 3, -5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestScheduleCallArgs(t *testing.T) {
	var q EventQueue
	var gotA, gotB int32
	h := q.Register(func(a, b int32) { gotA, gotB = a, b })
	q.ScheduleCall(7, h, 42, -9)
	q.Run(0)
	if gotA != 42 || gotB != -9 {
		t.Fatalf("args (%d, %d), want (42, -9)", gotA, gotB)
	}
	if q.Now() != 7 {
		t.Fatalf("Now = %v, want 7", q.Now())
	}
}

func TestEventQueueNodeCapacityBounded(t *testing.T) {
	// Fired nodes leave the heap array: a drain/refill cycle keeps its
	// capacity at the high-water mark of pending events instead of
	// growing with the number of events ever scheduled.
	var q EventQueue
	fired := 0
	cb := q.Register(func(a, b int32) { fired++ })
	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			q.ScheduleCall(q.Now().Add(Duration(i)), cb, 0, 0)
		}
		q.Run(0)
	}
	if fired != 1000 {
		t.Fatalf("fired %d, want 1000", fired)
	}
	if c := cap(q.heap); c > 2*100 {
		t.Fatalf("node array grew to capacity %d for 100 pending events", c)
	}
	if q.Scheduled() != 1000 {
		t.Fatalf("Scheduled = %d, want 1000", q.Scheduled())
	}
}

func TestEventQueueReset(t *testing.T) {
	var q EventQueue
	discarded := q.Register(func(_, _ int32) { t.Fatal("discarded event fired") })
	q.ScheduleCall(100, discarded, 0, 0)
	q.Reset()
	if q.Len() != 0 || q.Now() != 0 || q.Scheduled() != 0 {
		t.Fatalf("Reset left len=%d now=%v scheduled=%d", q.Len(), q.Now(), q.Scheduled())
	}
	// The queue must be fully usable after Reset, with seq restarting so
	// ordering stays deterministic and registrations kept.
	h, got := recorder(&q)
	q.ScheduleCall(5, h, 1, 0)
	q.ScheduleCall(5, h, 2, 0)
	q.Run(0)
	if g := *got; len(g) != 2 || g[0] != 1 || g[1] != 2 {
		t.Fatalf("post-Reset events fired as %v", g)
	}
}

func TestEventQueueScheduleDuringFire(t *testing.T) {
	// A callback scheduling while its own node is being popped must not
	// corrupt the queue.
	var q EventQueue
	var got []int32
	var cb Handle
	cb = q.Register(func(a, _ int32) {
		got = append(got, a)
		if a < 5 {
			q.ScheduleCall(q.Now().Add(1), cb, a+1, 0)
		}
	})
	q.ScheduleCall(0, cb, 0, 0)
	q.Run(0)
	if len(got) != 6 || got[5] != 5 {
		t.Fatalf("cascade fired %v", got)
	}
}

// BenchmarkEventQueue measures a schedule/drain cycle of 1024 events.
// The ScheduleCall path must be allocation-free after warm-up.
func BenchmarkEventQueue(b *testing.B) {
	var q EventQueue
	n := 0
	cb := q.Register(func(a, _ int32) { n++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		for j := 0; j < 1024; j++ {
			q.ScheduleCall(q.Now().Add(Duration(j%97)), cb, int32(j), 0)
		}
		q.Run(0)
		if n != 1024 {
			b.Fatal(n)
		}
	}
}

// BenchmarkEventQueueHold measures the simulator's access pattern: a
// heap holding about 48 pending events (the mean measured in planner
// sweeps), where each step pops the earliest event and its callback
// pushes one replacement at a seeded offset. One op is 1024 steps.
func BenchmarkEventQueueHold(b *testing.B) {
	const pending, steps = 48, 1024
	var offs [256]Duration
	rng := NewRand(1)
	for i := range offs {
		offs[i] = Duration(rng.Intn(int(100 * Millisecond)))
	}
	var q EventQueue
	k := 0
	var cb Handle
	cb = q.Register(func(a, _ int32) {
		k++
		q.ScheduleCall(q.Now().Add(offs[k&255]), cb, a, 0)
	})
	for i := 0; i < pending; i++ {
		q.ScheduleCall(Time(offs[i]), cb, int32(i), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < steps; j++ {
			q.Step()
		}
	}
	if q.Len() != pending {
		b.Fatalf("%d pending, want %d", q.Len(), pending)
	}
}

func TestSnapshotPendingFiringOrder(t *testing.T) {
	var q EventQueue
	cb := q.Register(func(a, b int32) {})
	// Schedule out of order, with a same-instant pair to pin the
	// insertion-sequence tiebreak.
	q.ScheduleCall(30, cb, 3, 30)
	q.ScheduleCall(10, cb, 1, 10)
	q.ScheduleCall(20, cb, 2, 20)
	q.ScheduleCall(10, cb, 4, 40) // same instant as the second event, inserted later
	evs := q.SnapshotPending(nil)
	if len(evs) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(evs))
	}
	wantA := []int32{1, 4, 2, 3}
	wantAt := []Time{10, 10, 20, 30}
	for i, ev := range evs {
		if ev.A != wantA[i] || ev.At != wantAt[i] {
			t.Fatalf("snapshot[%d] = (at %v, a %d), want (at %v, a %d)", i, ev.At, ev.A, wantAt[i], wantA[i])
		}
	}
	// The snapshot must not disturb execution order.
	var q3 EventQueue
	run, fired := recorder(&q3)
	q3.ScheduleCall(30, run, 3, 0)
	q3.ScheduleCall(10, run, 1, 0)
	q3.ScheduleCall(20, run, 2, 0)
	q3.ScheduleCall(10, run, 4, 0)
	q3.SnapshotPending(nil)
	q3.Run(0)
	if f := *fired; len(f) != 4 || f[0] != 1 || f[1] != 4 || f[2] != 2 || f[3] != 3 {
		t.Fatalf("post-snapshot firing order %v, want [1 4 2 3]", f)
	}
}

func TestSnapshotPendingReusesBuffer(t *testing.T) {
	var q EventQueue
	cb := q.Register(func(a, b int32) {})
	for i := 0; i < 8; i++ {
		q.ScheduleCall(Time(i), cb, int32(i), 0)
	}
	buf := q.SnapshotPending(nil)
	if len(buf) != 8 {
		t.Fatalf("snapshot = %d events, want 8", len(buf))
	}
	allocs := testing.AllocsPerRun(50, func() {
		buf = q.SnapshotPending(buf)
		if len(buf) != 8 {
			t.Fatal("warm snapshot changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SnapshotPending allocated %.1f times per run", allocs)
	}
}

func TestShiftPendingAdvancesClockEventsAndArgs(t *testing.T) {
	var fired []int32
	var at []Time
	var q EventQueue
	run := q.Register(func(a, b int32) { fired = append(fired, a, b); at = append(at, q.Now()) })
	q.ScheduleCall(10, run, 1, 100)
	q.ScheduleCall(10, run, 2, 200)
	q.ScheduleCall(30, run, 3, 300)
	q.ShiftPending(5, func(a, b int32) (int32, int32) {
		if a == 2 {
			return a, b + 1000 // rewrite one event's payload
		}
		return a, b
	})
	if q.Now() != 5 {
		t.Fatalf("clock after shift = %v, want 5", q.Now())
	}
	end := q.Run(0)
	// Order preserved (uniform shift), times moved by 5, args rewritten.
	want := []int32{1, 100, 2, 1200, 3, 300}
	if len(fired) != len(want) {
		t.Fatalf("fired %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if at[0] != 15 || at[1] != 15 || at[2] != 35 || end != 35 {
		t.Fatalf("fire times %v end %v, want [15 15 35] 35", at, end)
	}
}

func TestShiftPendingNilRewrite(t *testing.T) {
	var got []int32
	var q EventQueue
	h := q.Register(func(a, b int32) { got = append(got, a, b) })
	q.ScheduleCall(10, h, 7, 70)
	q.ShiftPending(20, nil)
	q.Run(0)
	if q.Now() != 30 {
		t.Fatalf("event fired at %v, want 30", q.Now())
	}
	if len(got) != 2 || got[0] != 7 || got[1] != 70 {
		t.Fatalf("args %v, want [7 70] (nil rewrite must not touch them)", got)
	}
}
