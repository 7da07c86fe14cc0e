package sim

import (
	"math"

	"repro/internal/simtime"
)

// Steady-state cycle detection.
//
// The paper observes (§4.4) that the pipeline schedule is periodic in
// steady state: once every stage has filled, the executor repeats the
// same relative pattern of tasks once per micro-batch until the drain.
// A deterministic run (no jitter source) therefore only has three
// distinct phases — warm-up, a long exactly-repeating middle, and the
// drain — and simulating the middle event by event is wasted work that
// grows linearly with Nm. §7.2 needs the simulate-and-decide loop to
// answer in hundreds of milliseconds regardless of batch size, so the
// executor detects the repetition online and fast-forwards over it
// arithmetically.
//
// Detection works on canonical relative fingerprints taken at "period
// boundaries" — each completion of a stage-0 backward, which happens
// exactly once per micro-batch in steady state. A fingerprint records
// everything the executor's future depends on, normalized so that two
// shift-equivalent states compare equal:
//
//   - micro-batch indices relative to m0, the lowest backward still
//     outstanding on any stage;
//   - times relative to the current clock, with all past instants
//     collapsed into one class (the executor only ever compares past
//     times against "now", so their exact values are dead state); an
//     arrival recorded ahead of time for a busy receiver (arrive in
//     sim.go) is a future instant and keeps its exact offset;
//   - the pending event queue in deterministic firing order, with the
//     micro indices inside event arguments normalized the same way
//     (simtime.EventQueue.SnapshotPending).
//
// Two equal fingerprints at boundaries i < j prove the execution is
// periodic with period (Δm, Δt) = (m0_j − m0_i, now_j − now_i): from
// boundary j on, every further Δm micro-batches replay the same events
// shifted by Δt. The executor then jumps k whole periods at once —
// advancing the clock, pending-event timestamps and micro arguments,
// per-stage cursors, busy sums and the opportunistic counter by exact
// integer arithmetic — and resumes event-driven execution for the
// drain. k is chosen so the forward frontier stays strictly below Nm
// through every skipped period, which is what makes the fast path
// bit-identical to brute force (pinned by the golden tests in
// steadystate_test.go).
//
// Detection is Brent-style with one materialized snapshot: the
// reference is re-captured on a geometric schedule of boundary
// ordinals (×1.5), and every other boundary only *streams* the live
// executor state against the reference vector, bailing at the first
// mismatch. Costs follow from that split. A boundary that does not
// match — every boundary of the warm-up, and all of them in the rare
// deep-pipeline regimes whose relative phase precesses without exactly
// repeating — costs O(first difference), and the vector is laid out so
// differences surface early: the cheap discriminating scalars
// (per-stage cursors, in-flight counts, pending-event offsets) come
// before the expensive per-micro windows. Only the O(log) reference
// captures and the single successful match walk the full state. Two
// more trims keep even those cheap: while the pipeline is filling, the
// live window (hi − m0) differs from the previous boundary's, and such
// a boundary cannot match any stored fingerprint (the window length
// leads the vector), so it is skipped outright; and each stage's
// per-micro window starts at its own backward cursor — everything
// below it is constant given the cursor itself. None of this trades
// exactness: a skipped or early-exited boundary only delays detection,
// and a reported match has compared the complete canonical state.
//
// A run is eligible only when it is deterministic — no Rand, no jitter
// CVs — and not collecting a trace (skipped periods record no spans).
// Strict-policy runs are eligible too, with two extra guards: the
// fingerprint includes a window of upcoming order entries (the stage's
// position in its task list is part of the state), and before
// fast-forwarding the detector verifies the order content is actually
// periodic across the whole skipped range, capping k where it is not
// (GPipe's all-forwards phase, drain tails). Strict-and-opportunistic
// combinations are ineligible: the opportunistic scan can read
// unboundedly far ahead in the order, which a bounded fingerprint
// cannot pin. No in-repo policy uses that combination.
type steadyState struct {
	armed bool
	fired bool // a fast-forward was applied this run

	boundaries  int // comparable (non-skipped) boundaries seen so far
	nextRebuild int // boundary ordinal at which the reference is re-captured
	lastWin     int // live-window size at the previous boundary (-1: none)

	ref   ssSnap
	evBuf []simtime.PendingEvent

	shiftM int // micro shift applied by shiftEventArgs during a fast-forward
}

// ssSnap is one boundary snapshot: the canonical relative state vector
// plus the absolute side-state a fast-forward needs to turn "same
// relative state" into exact per-period deltas.
type ssSnap struct {
	valid  bool
	vec    []int64
	m0     int
	now    simtime.Time
	opport int
	busy   []simtime.Duration // per-stage busySum
	pos    []int              // per-stage orderPos
}

// Canonical-time sentinels. All past instants collapse into ssPast:
// the executor only compares past times against the current clock, so
// two states that differ only in how long ago an input arrived behave
// identically.
const (
	ssNever = int64(math.MaxInt64)
	ssPast  = int64(-1)
	ssNone  = int64(-2) // hot/locked: no micro
)

// steadyStateEligible reports whether the detector can arm for cfg:
// deterministic, traceless, not disabled, and not a
// strict-opportunistic hybrid. estimateMakespan keys off the same
// predicate — a config the detector cannot accelerate keeps the
// anchor-extrapolation estimate instead of silently paying a full-Nm
// event-driven run.
func steadyStateEligible(cfg *Config) bool {
	return cfg.Rand == nil && cfg.JitterCV == 0 && cfg.ComputeJitterCV == 0 &&
		!cfg.CollectTrace && !cfg.DisableSteadyState &&
		(cfg.Policy.Rule || !cfg.Policy.Opportunistic)
}

// reset arms the detector for a new run when the configuration is
// eligible.
func (ss *steadyState) reset(e *executor) {
	ss.armed = steadyStateEligible(&e.cfg)
	ss.boundaries = 0
	ss.nextRebuild = 1
	ss.lastWin = -1
	ss.ref.valid = false
	ss.fired = false
	ss.shiftM = 0
}

// boundary runs at every stage-0 backward completion: stream the live
// state against the reference fingerprint, fast-forwarding on a match
// and re-capturing the reference on the geometric schedule otherwise.
func (ss *steadyState) boundary(e *executor, now simtime.Time) {
	nm := e.cfg.Micros
	m0 := e.stages[0].bwdLow
	hi := 0
	for i := range e.stages {
		st := &e.stages[i]
		if st.bwdLow < m0 {
			m0 = st.bwdLow
		}
		if st.fwdHi > hi {
			hi = st.fwdHi
		}
	}
	// Fast-forwarding k periods needs the forward frontier to stay
	// strictly below Nm throughout (hi + k·Δm ≤ Nm−1 with Δm ≥ 1, see
	// fastForward); once the frontier reaches the tail no whole period
	// can ever be skipped again — the frontier only grows — so stop
	// paying for detection.
	if hi >= nm-1 {
		ss.armed = false
		return
	}
	// Fill phase: the window just changed size, so this boundary cannot
	// match any stored fingerprint — skip it entirely.
	if win := hi - m0; win != ss.lastWin {
		ss.lastWin = win
		return
	}
	if ss.ref.valid {
		if ss.liveEquals(e, now, m0, hi) {
			ss.fastForward(e, now, m0, hi)
			if ss.fired {
				ss.armed = false
				return
			}
			// The jump was declined — the frontier cap allowed no whole
			// period, or the strict order content ahead is not periodic
			// (capStrict). Drop the stale reference so the rebuild
			// schedule recaptures in the current phase instead of
			// re-walking the same full match every period; detection
			// stays armed for a later phase that is periodic.
			ss.ref.valid = false
		}
	}
	ss.boundaries++
	if ss.boundaries >= ss.nextRebuild {
		ss.capture(e, now, m0, hi)
		// ×1.5 geometric re-capture: within ~half an onset of steady
		// state the reference lands inside the periodic regime, and the
		// next Δb boundaries of cheap streaming compares find the match.
		ss.nextRebuild = ss.nextRebuild*3/2 + 1
	}
}

// capture materializes the canonical fingerprint of the current state
// into the reference snapshot. Layout (mirrored exactly by liveEquals):
// the live-window length, every stage's scalar cursors, the per-micro
// windows, the strict-policy order windows, and the pending-event
// queue last. Scalars lead so that streaming comparisons against a
// drifting state exit early; the queue trails so that only a boundary
// whose direct state already matches pays for the snapshot-and-sort of
// SnapshotPending.
func (ss *steadyState) capture(e *executor, now simtime.Time, m0, hi int) {
	s := &ss.ref
	s.valid = false
	s.m0 = m0
	s.now = now
	s.opport = e.opport
	s.busy = s.busy[:0]
	s.pos = s.pos[:0]
	v := s.vec[:0]
	v = append(v, int64(hi-m0))
	syncComm := e.cfg.Policy.SyncComm
	strict := !e.cfg.Policy.Rule
	for i := range e.stages {
		st := &e.stages[i]
		s.busy = append(s.busy, st.busySum)
		s.pos = append(s.pos, st.orderPos)
		// nextFwd is the rule-mode forward cursor; strict stages leave
		// it at zero, where normalizing by m0 would (wrongly) make the
		// fingerprint drift.
		nextFwd := int64(0)
		if !strict {
			nextFwd = int64(st.nextFwd - m0)
		}
		v = append(v,
			int64(st.bwdLow-m0),
			nextFwd,
			int64(st.fwdHi-m0),
			int64(st.inFlight),
			boolBit(st.busy),
			relMicro(st.hot, m0),
			relMicro(st.locked, m0),
			relTime(st.wakeAt, now),
		)
	}
	for i := range e.stages {
		st := &e.stages[i]
		// Micros below this stage's own backward cursor are fully
		// processed here: their bits are all-set and their instants all
		// past — constants, given the bwdLow cursor recorded above — so
		// the window starts at the stage's cursor, not at the global m0.
		for m := st.bwdLow; m < hi; m++ {
			bits := boolBit(st.fwdDone[m]) | boolBit(st.recDone[m])<<1 | boolBit(st.bwdDone[m])<<2
			v = append(v, bits,
				relTime(st.actArrival[m], now),
				relTime(st.gradArrival[m], now),
				relTime(st.gradAnnounce[m], now))
			if syncComm {
				v = append(v,
					relTime(st.fwdSenderEnd[m], now),
					relTime(st.gradSenderEnd[m], now))
			}
		}
		if strict {
			// The stage's relative position in its task list is part of
			// the state: record the upcoming order window (entry kinds,
			// micros relative to m0, done flags). 3·window + 8 entries
			// comfortably cover one period's consumption plus the
			// completion lag of the entry currently executing.
			order := e.cfg.Orders[st.idx]
			w := 3*(hi-m0) + 8
			if rem := len(order) - st.orderPos; rem < w {
				w = rem
			}
			v = append(v, int64(w))
			for j := 0; j < w; j++ {
				t := order[st.orderPos+j]
				v = append(v,
					int64(t.Kind),
					int64(t.Micro-m0),
					boolBit(st.orderDone[st.orderPos+j]))
			}
		}
	}
	evs := e.q.SnapshotPending(ss.evBuf)
	ss.evBuf = evs
	v = append(v, int64(len(evs)))
	for _, ev := range evs {
		// Pending events are never in the past (the queue clamps), so
		// At−now is the exact relative offset. The first argument
		// carries (kind, stage) — both absolute invariants of the run —
		// and the second carries a micro index for the three
		// micro-addressed kinds, normalized like every other index.
		v = append(v, int64(ev.At-now), int64(ev.A), relEvB(ev, m0))
	}
	s.vec = v
	s.valid = true
}

// liveEquals streams the canonical fingerprint of the current state
// against the reference vector, in exactly capture's emission order,
// and reports whether they are identical. The queue snapshot, the one
// non-free piece, is taken only once the direct state matches. A
// mismatch returns at the first differing value — during warm-up and
// phase drift that is almost always within the leading scalar section
// — so the per-boundary cost of watching for the cycle is O(1)-ish,
// not O(state).
func (ss *steadyState) liveEquals(e *executor, now simtime.Time, m0, hi int) bool {
	v := ss.ref.vec
	i := 0
	match := func(x int64) bool {
		if i >= len(v) || v[i] != x {
			return false
		}
		i++
		return true
	}
	if !match(int64(hi - m0)) {
		return false
	}
	syncComm := e.cfg.Policy.SyncComm
	strict := !e.cfg.Policy.Rule
	for si := range e.stages {
		st := &e.stages[si]
		nextFwd := int64(0)
		if !strict {
			nextFwd = int64(st.nextFwd - m0)
		}
		if !match(int64(st.bwdLow-m0)) || !match(nextFwd) ||
			!match(int64(st.fwdHi-m0)) || !match(int64(st.inFlight)) ||
			!match(boolBit(st.busy)) || !match(relMicro(st.hot, m0)) ||
			!match(relMicro(st.locked, m0)) || !match(relTime(st.wakeAt, now)) {
			return false
		}
	}
	for si := range e.stages {
		st := &e.stages[si]
		for m := st.bwdLow; m < hi; m++ {
			bits := boolBit(st.fwdDone[m]) | boolBit(st.recDone[m])<<1 | boolBit(st.bwdDone[m])<<2
			if !match(bits) || !match(relTime(st.actArrival[m], now)) ||
				!match(relTime(st.gradArrival[m], now)) || !match(relTime(st.gradAnnounce[m], now)) {
				return false
			}
			if syncComm && (!match(relTime(st.fwdSenderEnd[m], now)) || !match(relTime(st.gradSenderEnd[m], now))) {
				return false
			}
		}
		if strict {
			order := e.cfg.Orders[st.idx]
			w := 3*(hi-m0) + 8
			if rem := len(order) - st.orderPos; rem < w {
				w = rem
			}
			if !match(int64(w)) {
				return false
			}
			for j := 0; j < w; j++ {
				t := order[st.orderPos+j]
				if !match(int64(t.Kind)) || !match(int64(t.Micro-m0)) ||
					!match(boolBit(st.orderDone[st.orderPos+j])) {
					return false
				}
			}
		}
	}
	// The direct state matches: only now pay for the queue snapshot.
	evs := e.q.SnapshotPending(ss.evBuf)
	ss.evBuf = evs
	if !match(int64(len(evs))) {
		return false
	}
	for _, ev := range evs {
		if !match(int64(ev.At-now)) || !match(int64(ev.A)) || !match(relEvB(ev, m0)) {
			return false
		}
	}
	return i == len(v)
}

// relEvB normalizes the second callback argument of a pending event:
// a micro index for the three micro-addressed kinds, opaque payload
// otherwise.
func relEvB(ev simtime.PendingEvent, m0 int) int64 {
	switch ev.A >> 16 {
	case evComplete, evActArrive, evGradArrive:
		return int64(ev.B) - int64(m0)
	}
	return int64(ev.B)
}

// fastForward applies k whole periods in O(P · window) arithmetic: the
// clock, every pending event (timestamp and micro arguments), every
// per-stage cursor and per-micro state window, busy sums and the
// opportunistic counter advance by exactly what k periods of
// event-driven execution would have produced. The reference snapshot
// is the earlier matched state; the per-period deltas are "now minus
// reference".
func (ss *steadyState) fastForward(e *executor, now simtime.Time, m0, hi int) {
	ref := &ss.ref
	dm := m0 - ref.m0
	dt := now.Sub(ref.now)
	if dm < 1 || dt < 1 {
		return
	}
	nm := e.cfg.Micros
	// Keep the forward frontier strictly below Nm through every skipped
	// period: during period j the executor touches micros below
	// hi + (j+1)·Δm, and a stage must still see nextFwd < Nm at every
	// instant for its decisions to replay shift-identically.
	k := (nm - 1 - hi) / dm
	if k < 1 {
		return
	}
	if !e.cfg.Policy.Rule {
		k = ss.capStrict(e, k, dm)
		if k < 1 {
			return
		}
	}
	kdm := k * dm
	kdt := simtime.Duration(k) * simtime.Duration(dt)

	ss.shiftM = kdm
	e.q.ShiftPending(kdt, e.onShift)
	for i := range e.stages {
		st := &e.stages[i]
		busyDelta := st.busySum - ref.busy[i]
		// Shift the live per-micro window up by k·Δm (descending copy —
		// source and destination overlap when the skip is shorter than
		// the window).
		for m := hi - 1 + kdm; m >= st.bwdLow+kdm; m-- {
			src := m - kdm
			st.fwdDone[m] = st.fwdDone[src]
			st.recDone[m] = st.recDone[src]
			st.bwdDone[m] = st.bwdDone[src]
			st.actArrival[m] = shiftTime(st.actArrival[src], kdt)
			st.gradArrival[m] = shiftTime(st.gradArrival[src], kdt)
			st.gradAnnounce[m] = shiftTime(st.gradAnnounce[src], kdt)
			st.fwdSenderEnd[m] = shiftTime(st.fwdSenderEnd[src], kdt)
			st.gradSenderEnd[m] = shiftTime(st.gradSenderEnd[src], kdt)
		}
		// Micros skipped by the jump are fully processed; their timing
		// state is dead (only bwdDone is ever consulted once a micro's
		// backward is complete).
		for m := st.bwdLow; m < st.bwdLow+kdm; m++ {
			st.fwdDone[m] = true
			st.recDone[m] = true
			st.bwdDone[m] = true
		}
		if !e.cfg.Policy.Rule {
			c := st.orderPos - ref.pos[i]
			kc := k * c
			for j := len(st.orderDone) - 1; j >= st.orderPos+kc; j-- {
				st.orderDone[j] = st.orderDone[j-kc]
			}
			for j := st.orderPos; j < st.orderPos+kc; j++ {
				st.orderDone[j] = true
			}
			st.orderPos += kc
		}
		st.bwdLow += kdm
		st.nextFwd += kdm
		st.fwdHi += kdm
		st.bwdLeft -= kdm
		if st.hot >= 0 {
			st.hot += kdm
		}
		if st.locked >= 0 {
			st.locked += kdm
		}
		st.busyUntil = st.busyUntil.Add(kdt)
		if st.wakeAt != never {
			st.wakeAt = st.wakeAt.Add(kdt)
		}
		st.lastBwd = st.lastBwd.Add(kdt)
		st.busySum += simtime.Duration(k) * busyDelta
	}
	e.opport += k * (e.opport - ref.opport)
	ss.fired = true
}

// capStrict bounds k for strict policies by how far the order content
// is actually periodic: entry j+c must be entry j advanced by Δm for
// every entry the skipped periods would consume (plus a cushion for
// the in-period read-ahead), where c is the per-period entry
// consumption observed between the reference and the match. GPipe's
// all-forward phase and every drain tail fail the check and cap k —
// usually to zero, which simply declines the jump.
func (ss *steadyState) capStrict(e *executor, k, dm int) int {
	for i := range e.stages {
		st := &e.stages[i]
		order := e.cfg.Orders[st.idx]
		c := st.orderPos - ss.ref.pos[i]
		if c < 1 {
			return 0
		}
		cushion := c + 8
		limit := st.orderPos + k*c + cushion
		if limit > len(order) {
			limit = len(order)
		}
		for j := ss.ref.pos[i]; j+c < limit; j++ {
			if order[j+c].Kind != order[j].Kind || order[j+c].Micro != order[j].Micro+dm {
				kMax := (j + c - cushion - st.orderPos) / c
				if kMax < k {
					k = kMax
				}
				break
			}
		}
		if k < 1 {
			return 0
		}
	}
	return k
}

// shiftEventArgs advances the micro index inside a pending event's
// arguments by the current fast-forward shift. Completion events pack
// the task kind above bit 24, and micros stay below 2^24, so a plain
// add keeps the kind intact for all three micro-addressed event kinds.
func (e *executor) shiftEventArgs(a, b int32) (int32, int32) {
	switch a >> 16 {
	case evComplete, evActArrive, evGradArrive:
		return a, b + int32(e.ss.shiftM)
	}
	return a, b
}

// relTime canonicalizes an absolute instant against the current clock:
// never stays a sentinel, the future keeps its exact offset, and the
// whole past collapses into one class.
func relTime(t, now simtime.Time) int64 {
	if t == never {
		return ssNever
	}
	if t < now {
		return ssPast
	}
	return int64(t - now)
}

// relMicro canonicalizes a micro index (or the -1 "none" sentinel).
func relMicro(m, m0 int) int64 {
	if m < 0 {
		return ssNone
	}
	return int64(m - m0)
}

// shiftTime advances an instant by d, preserving the never sentinel.
func shiftTime(t simtime.Time, d simtime.Duration) simtime.Time {
	if t == never {
		return t
	}
	return t.Add(d)
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
