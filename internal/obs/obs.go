// Package obs is the simulated-time observability layer: causal spans
// and typed metrics threaded through the whole simulate-and-decide
// stack (market → arbiter → manager → planner → restart).
//
// The evaluation story of the paper (§6, Figure 8) is a *timeline
// narrative* — which preemption triggered which morph, how long
// recovery took, where dollars went — but the aggregate counters in
// manager.Stats and the scenario reports flatten that narrative into
// totals. A Tracer records the narrative itself: every span is keyed
// to a simtime instant and linked to the span that caused it, so one
// chain — market reclaim → arbiter revocation cascade → manager
// preemption handling → planner sweep → restart phases → resumed
// training segment — is reconstructable end to end, and exportable as
// a Chrome trace-event file (chrome://tracing, Perfetto).
//
// Design constraints, in order:
//
//  1. Off must be free. A nil *Tracer is a valid tracer whose every
//     method is an immediate return — no interface dispatch, no
//     allocation, no branch beyond the nil check — so instrumented hot
//     paths are bit-identical and allocation-identical to
//     uninstrumented ones (TestTracerDisabledZeroAlloc pins this).
//  2. Deterministic when on. Spans carry only simulated time and
//     values derived from it; recording order is the event-loop's
//     deterministic execution order, so a replayed scenario exports a
//     byte-identical trace. Wall-clock self-profiling lives in the
//     separate Metrics registry and never enters the trace file.
//  3. Causality is explicit. Every span names its parent; cross-track
//     links (an arbiter revocation parenting a job's preemption span)
//     ride spot.Event.Cause and are rendered as flow arrows in the
//     Chrome export.
package obs

import (
	"sync"

	"repro/internal/simtime"
)

// SpanID identifies one recorded span. 0 is "no span" (the nil parent
// and the id every operation on a disabled tracer returns).
type SpanID int64

// TrackID identifies one export track (a Chrome trace "thread"): one
// per job, plus the arbiter and market control tracks. 0 is the
// default track.
type TrackID int32

// Span is one recorded operation on the simulated clock. Instant
// events are spans with End == Start.
type Span struct {
	ID     SpanID
	Parent SpanID
	Track  TrackID
	Start  simtime.Time
	End    simtime.Time
	// Cat groups spans by subsystem ("market", "arbiter", "manager",
	// "planner", "restart"); Name is the operation ("tick", "morph",
	// "flush", ...).
	Cat  string
	Name string
	Args []Arg
}

// Arg is one key/value annotation on a span. Values are either int64
// or string — enough for GPU counts, VM ids, config shapes — and are
// only ever derived from simulated state, keeping the trace
// deterministic.
type Arg struct {
	Key string
	Val int64
	Str string
}

// I64 builds an integer arg.
func I64(key string, v int64) Arg { return Arg{Key: key, Val: v} }

// Str builds a string arg.
func Str(key, v string) Arg { return Arg{Key: key, Str: v} }

// Tracer records causal spans over simulated time. The zero value is
// ready to use; a nil Tracer is the disabled tracer. Safe for
// concurrent use (the scenario event loops are single-threaded, but
// parallel sweep workers may annotate concurrently).
type Tracer struct {
	mu     sync.Mutex
	tracks []string
	spans  []Span
}

// NewTracer builds an enabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether the tracer records anything. All methods
// no-op on a nil receiver, but callers should guard argument
// construction behind Enabled so disabled hot paths stay
// allocation-free.
func (t *Tracer) Enabled() bool { return t != nil }

// Track registers (or looks up) a named track and returns its id.
// Registration order is export order: register control tracks
// (market, arbiter) before job tracks for a stable trace layout.
func (t *Tracer) Track(name string) TrackID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, n := range t.tracks {
		if n == name {
			return TrackID(i + 1)
		}
	}
	t.tracks = append(t.tracks, name)
	return TrackID(len(t.tracks))
}

// Begin opens a span at the given simulated instant. End closes it;
// until then the span's End is its Start. Returns 0 on a nil tracer.
func (t *Tracer) Begin(track TrackID, parent SpanID, at simtime.Time, cat, name string) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Track: track,
		Start: at, End: at, Cat: cat, Name: name,
	})
	return id
}

// End closes a span at the given instant. Ending at or before the
// span's start leaves it an instant event; unknown ids are ignored.
func (t *Tracer) End(id SpanID, at simtime.Time) {
	if t == nil || id < 1 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) > len(t.spans) {
		return
	}
	if sp := &t.spans[id-1]; at > sp.End {
		sp.End = at
	}
}

// Instant records a zero-duration span. Instants still carry ids so
// they can parent other spans — a preemption instant on a job track
// parents the decision span that handles it.
func (t *Tracer) Instant(track TrackID, parent SpanID, at simtime.Time, cat, name string) SpanID {
	return t.Begin(track, parent, at, cat, name)
}

// SetArgs appends annotations to a span.
func (t *Tracer) SetArgs(id SpanID, args ...Arg) {
	if t == nil || id < 1 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) > len(t.spans) {
		return
	}
	sp := &t.spans[id-1]
	sp.Args = append(sp.Args, args...)
}

// Spans snapshots every recorded span in recording order — the
// deterministic order the event loop executed.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Tracks snapshots the registered track names in registration order.
func (t *Tracer) Tracks() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.tracks))
	copy(out, t.tracks)
	return out
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Scope is the observability one run records into, passed down as one
// value: the tracer and the track its spans land on, the metrics
// registry, and the series set with the name prefix and cadence of its
// samples. The zero value records nothing; each hook is off while nil.
type Scope struct {
	Trace   *Tracer
	Track   TrackID
	Metrics *Metrics
	Series  *SeriesSet
	// Prefix prefixes every series name the run records ("<job>/" in
	// a fleet, so N jobs share one SeriesSet without colliding).
	Prefix string
	// SampleEvery is the cadence of periodic series samples; zero
	// leaves it to the recorder's default.
	SampleEvery simtime.Duration
}
