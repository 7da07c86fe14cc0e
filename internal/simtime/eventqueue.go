package simtime

import "math/bits"

// Handle names a callback registered on one EventQueue.
type Handle int32

// node is one pending event, stored by value in the heap array: the
// (at, seq) ordering key, the registered callback's handle and its two
// arguments. Events with equal times fire in insertion order (seq),
// which keeps simulations deterministic regardless of heap internals.
// A node holds no pointers, so the garbage collector never scans the
// heap.
type node struct {
	at   Time
	seq  int64
	a, b int32
	fn   Handle
}

// EventQueue is a priority queue of simulated events: a binary heap of
// pointer-free nodes ordered by (at, seq). A component registers its
// callback once (Register) and then schedules events as (instant,
// handle, a, b), so only 32 bytes travel through the queue per event
// and a schedule/fire cycle performs zero allocations once the heap
// has grown. Several components may share one queue, each with its own
// handle. The zero value is ready to use.
type EventQueue struct {
	now   Time
	seq   int64
	calls []func(a, b int32)
	heap  []node
}

// Register adds fn to the queue's callbacks and returns the handle
// events use to fire it. Registrations survive Reset.
func (q *EventQueue) Register(fn func(a, b int32)) Handle {
	q.calls = append(q.calls, fn)
	return Handle(len(q.calls) - 1)
}

// Now reports the current simulated time: the timestamp of the most
// recently fired event.
func (q *EventQueue) Now() Time { return q.now }

// ScheduleCall enqueues the callback registered as h, to be called
// with (a, b) at instant at. Scheduling in the past is clamped to the
// current time (the event fires after every event already due now).
func (q *EventQueue) ScheduleCall(at Time, h Handle, a, b int32) {
	if at < q.now {
		at = q.now
	}
	q.seq++
	q.heap = append(q.heap, node{at: at, seq: q.seq, a: a, b: b, fn: h})
	q.up(len(q.heap) - 1)
}

// Scheduled reports how many events have been scheduled since the
// queue was created or last Reset.
func (q *EventQueue) Scheduled() int64 { return q.seq }

// Step fires the earliest pending event, advancing the clock. It
// reports false when no events remain.
func (q *EventQueue) Step() bool {
	n := len(q.heap) - 1
	if n < 0 {
		return false
	}
	ev := q.heap[0]
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
	q.now = ev.at
	q.calls[ev.fn](ev.a, ev.b)
	return true
}

// Run fires events until the queue drains or the clock passes horizon
// (horizon <= 0 means no horizon). It returns the final simulated time.
func (q *EventQueue) Run(horizon Time) Time {
	for len(q.heap) > 0 {
		if horizon > 0 && q.heap[0].at > horizon {
			q.now = horizon
			break
		}
		q.Step()
	}
	return q.now
}

// PendingEvent is one scheduled-but-unfired event as seen by
// SnapshotPending: its absolute time and the two callback arguments.
// The insertion sequence stays unexported — snapshots are already
// emitted in firing order, and absolute sequence numbers would defeat
// the relative-state comparison snapshots exist for. The callback
// handle is not reported either: the simulator, the only caller,
// registers one callback per queue.
type PendingEvent struct {
	At   Time
	A, B int32

	seq int64
}

// SnapshotPending appends every pending event to dst[:0] in
// deterministic firing order (time, then insertion sequence). The
// returned slice aliases dst's backing array (grown as needed); a warm
// caller performs no allocations.
func (q *EventQueue) SnapshotPending(dst []PendingEvent) []PendingEvent {
	dst = dst[:0]
	for i := range q.heap {
		ev := &q.heap[i]
		dst = append(dst, PendingEvent{At: ev.at, A: ev.a, B: ev.b, seq: ev.seq})
	}
	// Insertion sort by (At, seq): pending counts are small (O(P) for
	// the simulator) and the heap emits them nearly ordered already.
	for i := 1; i < len(dst); i++ {
		e := dst[i]
		j := i - 1
		for j >= 0 && (dst[j].At > e.At || (dst[j].At == e.At && dst[j].seq > e.seq)) {
			dst[j+1] = dst[j]
			j--
		}
		dst[j+1] = e
	}
	return dst
}

// ShiftPending advances the simulated clock and every pending event by
// d, optionally rewriting each event's callback arguments. A uniform
// shift preserves the (time, sequence) order, so the heap stays valid
// and execution resumes exactly as if the skipped interval had been
// simulated event by event. This is the fast-forward primitive behind
// the simulator's steady-state cycle detection: once a deterministic
// schedule is known to be periodic, whole periods are applied
// arithmetically instead of fired.
func (q *EventQueue) ShiftPending(d Duration, rewrite func(a, b int32) (int32, int32)) {
	q.now = q.now.Add(d)
	for i := range q.heap {
		ev := &q.heap[i]
		ev.at = ev.at.Add(d)
		if rewrite != nil {
			ev.a, ev.b = rewrite(ev.a, ev.b)
		}
	}
}

// Reset discards every pending event and returns the clock and the
// sequence counter to zero, keeping the registered callbacks and the
// heap's capacity, so a pooled simulation can run again without
// reallocating or re-registering.
func (q *EventQueue) Reset() {
	q.heap = q.heap[:0]
	q.seq = 0
	q.now = 0
}

// before reports 1 when x fires before y (an earlier time, or the same
// time and a lower sequence) and 0 otherwise. It compares the (at, seq)
// keys as one 128-bit subtraction rather than with branches, because
// which child of a heap node fires first is a coin flip no branch
// predictor learns. Flipping at's sign bit maps signed order onto
// unsigned order; seq is always positive.
func before(x, y *node) int {
	const sign = 1 << 63
	_, borrow := bits.Sub64(uint64(x.seq), uint64(y.seq), 0)
	_, borrow = bits.Sub64(uint64(x.at)^sign, uint64(y.at)^sign, borrow)
	return int(borrow)
}

// less orders nodes by time, then insertion sequence.
func less(x, y *node) bool { return before(x, y) != 0 }

// up restores the heap property from leaf i toward the root.
func (q *EventQueue) up(i int) {
	h := q.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !less(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// down restores the heap property from node i toward the leaves.
func (q *EventQueue) down(i int) {
	h := q.heap
	n := len(h)
	ev := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if l+1 < n {
			c += before(&h[l+1], &h[l])
		}
		if !less(&h[c], &ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}
