// Package sim is Varuna's parametrized event-driven simulator (§4.4)
// and the pipeline executor underlying the testbed. Given the
// calibrated primitive parameters of Table 2 — per-stage forward,
// backward and recompute times, activation/gradient transfer times and
// per-stage allreduce times — it simulates one full mini-batch (Nm
// micro-batches followed by the data-parallel allreduce) for a concrete
// (P, D, m, Nm) configuration and reports the estimated
// time-per-mini-batch, plus a task-level trace for Gantt rendering
// (Figure 7).
//
// The executor implements both scheduling families the paper compares:
//
//   - Rule-based (Varuna, §3.2): backward preferred when ready
//     (constraint 3), recompute scheduled just-in-time so it completes
//     as the gradient arrives (constraint 1), a stage that recomputed
//     waits for the matching backward (constraint 2), and when the due
//     task's inputs are missing the stage opportunistically runs
//     another ready task (work conservation under jitter).
//   - Strict orders (GPipe, 1F1B, DeepSpeed): the stage follows a fixed
//     task list, stalling whenever the next task's inputs are missing.
//
// The simulate-and-decide loop is Varuna's morphing hot path (§7.2):
// the executor is pooled across invocations, all per-stage bookkeeping
// lives in flat backing arrays reused run to run, and every event is a
// pointer-free (instant, callback handle, two int32 arguments) node on
// the event queue. With CollectTrace off (the default for
// EstimateMakespan) a steady-state simulation performs no per-task
// allocations at all. The executor schedules only events that can
// change state: see start, arrive and wake for the ones it leaves out.
package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/schedule"
	"repro/internal/simtime"
)

// StageCosts carries the calibrated parameters of one pipeline stage
// (Table 2), folded to a concrete micro-batch size m.
type StageCosts struct {
	// Fwd, Bwd, Rec are compute times per micro-batch.
	Fwd, Bwd, Rec simtime.Duration
	// ActSend is the time to move the stage's output activations to
	// the next stage (latency + serialization).
	ActSend simtime.Duration
	// GradSend is the time to move input gradients to the previous
	// stage.
	GradSend simtime.Duration
	// AllReduce is the data-parallel gradient allreduce for this
	// stage's parameters over its replica ring.
	AllReduce simtime.Duration
	// Optimizer is the weight-update time after the allreduce.
	Optimizer simtime.Duration
}

// Config describes one simulated mini-batch execution.
type Config struct {
	// Depth is the pipeline depth P.
	Depth int
	// Micros is the number of micro-batches Nm.
	Micros int
	// Policy selects the scheduling discipline.
	Policy schedule.Policy
	// Orders holds the static per-stage task orders for strict
	// policies. Ignored in rule mode.
	Orders []schedule.Order
	// Costs holds per-stage calibrated parameters (len Depth).
	Costs []StageCosts
	// JitterCV applies multiplicative jitter to every network
	// transfer; 0 simulates with means (the parametric estimate).
	JitterCV float64
	// ComputeJitterCV jitters kernel times. GPU kernels are far more
	// stable than commodity networks; the testbed uses ~0.02. 0 means
	// deterministic compute.
	ComputeJitterCV float64
	// Rand supplies jitter samples; required when either jitter is set.
	Rand *simtime.Rand
	// SpeedFactor optionally slows individual stages (fail-stutter
	// modelling); nil means all stages run at full speed. A factor of
	// 1.3 makes the stage 30% slower.
	SpeedFactor []float64
	// MaxInFlight caps forwarded-but-not-backwarded micro-batches per
	// stage in rule mode (activation stash memory). 0 means 2·Depth.
	MaxInFlight int
	// CollectTrace records the per-task TaskSpan trace in the Result.
	// It defaults to off — the makespan-only fast path used by
	// EstimateMakespan and the autoconfig sweep — and must be set by
	// callers that render Gantt charts or derive static orders. All
	// summary metrics (Makespan, PipelineSpan, StageEnds, BubbleFrac)
	// are identical with the trace on or off.
	CollectTrace bool
	// DisableSteadyState turns off the steady-state cycle detector
	// (steadystate.go), forcing every deterministic run through full
	// event-by-event execution. The detector is bit-identical to brute
	// force by construction (and pinned so by the golden tests), so
	// this knob exists for those tests and for debugging, not tuning.
	DisableSteadyState bool
}

// TaskSpan is one executed task in the trace.
type TaskSpan struct {
	Stage      int
	Task       schedule.Task
	Start, End simtime.Time
}

// Result summarizes a simulated mini-batch.
type Result struct {
	// Makespan is the full mini-batch time including the allreduce
	// and optimizer step.
	Makespan simtime.Duration
	// PipelineSpan is the time until the last backward completes.
	PipelineSpan simtime.Duration
	// Trace lists every executed task in start order. Empty unless
	// Config.CollectTrace was set.
	Trace []TaskSpan
	// StageEnds records when each stage finished its last backward —
	// the point its data-parallel allreduce can begin.
	StageEnds []simtime.Time
	// Busy is the summed task time across all stages up to the
	// pipeline span — the complement of BubbleFrac, available even
	// when the trace is off.
	Busy simtime.Duration
	// BubbleFrac is idle stage-time divided by total stage-time up to
	// the pipeline span.
	BubbleFrac float64
	// OpportunisticRuns counts tasks run out of static order to hide
	// jitter (rule mode only).
	OpportunisticRuns int
}

const never = simtime.Time(math.MaxInt64)

type stageState struct {
	idx  int
	busy bool
	// busyUntil is when the running task's completion fires: while
	// busy, no try can run on the stage before it.
	busyUntil simtime.Time

	actArrival    []simtime.Time // activation availability per micro
	gradArrival   []simtime.Time
	gradAnnounce  []simtime.Time // predicted gradient arrival (known at upstream B start)
	fwdDone       []bool
	recDone       []bool
	bwdDone       []bool
	fwdSenderEnd  []simtime.Time // for SyncComm: when sender finished computing
	gradSenderEnd []simtime.Time

	hot       int    // micro whose activations are still resident (-1 none)
	locked    int    // micro we recomputed for and must backward next (-1 none)
	nextFwd   int    // next micro to forward (rule mode)
	inFlight  int    // forwarded but not yet backwarded
	orderPos  int    // strict mode position
	orderDone []bool // strict mode: executed order entries (incl. pulled-forward)
	hasRec    []bool // strict mode: order contains a recompute for micro m
	bwdLeft   int
	bwdLow    int // lowest micro not yet backwarded (cursor over bwdDone)
	fwdHi     int // 1 + highest micro forwarded so far
	busySum   simtime.Duration
	lastBwd   simtime.Time
	wakeAt    simtime.Time // pending scheduled wake (dedupe; SyncComm only)
}

// executor simulates one mini-batch. Instances are pooled: all
// per-stage bookkeeping slices point into the flat timeBuf/boolBuf/
// orderBuf backing arrays, which are resized (not reallocated) between
// runs, and the event callback is registered on the instance's queue
// once, so the hot path schedules plain (handle, a, b) nodes.
type executor struct {
	cfg    Config
	q      simtime.EventQueue
	stages []stageState
	trace  []TaskSpan
	opport int
	ss     steadyState

	timeBuf  []simtime.Time
	boolBuf  []bool
	orderBuf []bool

	onEvent simtime.Handle
	onShift func(a, b int32) (int32, int32)
}

// Event kinds on the executor's single dispatch callback. The kind
// rides in the high bits of the first argument (evA) so that pending
// events are self-describing: the steady-state detector can both
// fingerprint the queue and shift the micro indices buried in event
// arguments when it fast-forwards whole periods.
const (
	evTry int32 = iota
	evComplete
	evActArrive
	evGradArrive
	evWake
)

// evA packs an event kind and a stage index into the first callback
// argument (validate bounds Depth below 1<<16).
func evA(kind int32, stage int) int32 { return kind<<16 | int32(stage) }

var execPool = sync.Pool{New: func() any { return newExecutor() }}

func newExecutor() *executor {
	e := &executor{}
	e.onEvent = e.q.Register(func(a, b int32) {
		s := int(a & (1<<16 - 1))
		switch a >> 16 {
		case evTry:
			e.try(s)
		case evComplete:
			t := schedule.Task{Kind: schedule.Kind(b >> 24), Micro: int(b & (1<<24 - 1))}
			e.complete(&e.stages[s], t, e.q.Now())
		case evActArrive:
			e.stages[s].actArrival[b] = e.q.Now()
			e.try(s)
		case evGradArrive:
			e.stages[s].gradArrival[b] = e.q.Now()
			e.try(s)
		case evWake:
			st := &e.stages[s]
			if st.wakeAt == e.q.Now() {
				st.wakeAt = never
			}
			e.try(s)
		}
	})
	e.onShift = e.shiftEventArgs
	return e
}

// packTask encodes a task for the two-int32 event-callback channel.
func packTask(t schedule.Task) int32 { return int32(t.Kind)<<24 | int32(t.Micro) }

// grab carves n slots off buf, growing it as needed. Slices carved
// before a growth keep aliasing the old backing array — harmless,
// since every carved slice is private to one stage.
func grab[T any](buf *[]T, n int) []T {
	s := *buf
	off := len(s)
	if cap(s)-off < n {
		grown := make([]T, off, 2*(off+n))
		copy(grown, s)
		s = grown
	}
	s = s[:off+n]
	*buf = s
	return s[off : off+n : off+n]
}

// reset prepares the pooled executor for a new run of cfg.
func (e *executor) reset(cfg Config) {
	e.cfg = cfg
	e.opport = 0
	e.q.Reset()
	e.timeBuf = e.timeBuf[:0]
	e.boolBuf = e.boolBuf[:0]
	e.orderBuf = e.orderBuf[:0]
	e.trace = nil
	if cfg.CollectTrace {
		e.trace = make([]TaskSpan, 0, 3*cfg.Depth*cfg.Micros)
	}
	if cap(e.stages) < cfg.Depth {
		e.stages = make([]stageState, cfg.Depth)
	} else {
		e.stages = e.stages[:cfg.Depth]
	}
	nm := cfg.Micros
	for s := 0; s < cfg.Depth; s++ {
		st := &e.stages[s]
		*st = stageState{
			idx:           s,
			actArrival:    grab(&e.timeBuf, nm),
			gradArrival:   grab(&e.timeBuf, nm),
			gradAnnounce:  grab(&e.timeBuf, nm),
			fwdSenderEnd:  grab(&e.timeBuf, nm),
			gradSenderEnd: grab(&e.timeBuf, nm),
			fwdDone:       grab(&e.boolBuf, nm),
			recDone:       grab(&e.boolBuf, nm),
			bwdDone:       grab(&e.boolBuf, nm),
			hot:           -1,
			locked:        -1,
			bwdLeft:       nm,
			bwdLow:        0,
			fwdHi:         0,
			wakeAt:        never,
		}
		for m := 0; m < nm; m++ {
			st.gradArrival[m] = never
			st.gradAnnounce[m] = never
			st.fwdSenderEnd[m] = never
			st.gradSenderEnd[m] = never
			st.fwdDone[m] = false
			st.recDone[m] = false
			st.bwdDone[m] = false
			if s == 0 {
				st.actArrival[m] = 0
				st.fwdSenderEnd[m] = 0
			} else {
				st.actArrival[m] = never
			}
		}
		if !cfg.Policy.Rule {
			st.orderDone = grab(&e.orderBuf, len(cfg.Orders[s]))
			for i := range st.orderDone {
				st.orderDone[i] = false
			}
			st.hasRec = grab(&e.boolBuf, nm)
			for m := range st.hasRec {
				st.hasRec[m] = false
			}
			for _, t := range cfg.Orders[s] {
				if t.Kind == schedule.Recompute {
					st.hasRec[t.Micro] = true
				}
			}
		}
	}
	e.ss.reset(e)
}

// release returns the executor to the pool, dropping every reference
// into caller-owned state (costs, orders, rand, trace).
func (e *executor) release() {
	e.cfg = Config{}
	e.trace = nil
	execPool.Put(e)
}

// Run simulates one mini-batch under cfg.
func Run(cfg Config) (Result, error) {
	if err := validate(&cfg); err != nil {
		return Result{}, err
	}
	e := execPool.Get().(*executor)
	defer e.release()
	return e.run(cfg)
}

// run executes one validated mini-batch on this executor.
func (e *executor) run(cfg Config) (Result, error) {
	e.reset(cfg)
	for s := 0; s < cfg.Depth; s++ {
		e.q.ScheduleCall(0, e.onEvent, evA(evTry, s), 0)
	}
	e.q.Run(0)

	res := Result{Trace: e.trace, OpportunisticRuns: e.opport, StageEnds: make([]simtime.Time, cfg.Depth)}
	e.trace = nil // ownership moves to the caller
	var pipeEnd, fullEnd simtime.Time
	var busy simtime.Duration
	for i := range e.stages {
		st := &e.stages[i]
		if st.bwdLeft > 0 {
			return Result{}, fmt.Errorf("sim: deadlock — stage %d has %d backwards pending", st.idx, st.bwdLeft)
		}
		res.StageEnds[i] = st.lastBwd
		pipeEnd = simtime.Max(pipeEnd, st.lastBwd)
		busy += st.busySum
	}
	for s := range e.stages {
		end := e.stages[s].lastBwd
		if !e.cfg.Policy.NoFlush {
			end = end.Add(e.netDur(e.cfg.Costs[s].AllReduce))
		}
		end = end.Add(e.dur(e.cfg.Costs[s].Optimizer, s))
		fullEnd = simtime.Max(fullEnd, end)
	}
	res.PipelineSpan = simtime.Duration(pipeEnd)
	res.Makespan = simtime.Duration(fullEnd)
	res.Busy = busy
	if pipeEnd > 0 {
		total := simtime.Duration(pipeEnd) * simtime.Duration(cfg.Depth)
		res.BubbleFrac = 1 - float64(busy)/float64(total)
	}
	return res, nil
}

// costFields names the StageCosts fields in the order validate checks them.
var costFields = [...]string{"Fwd", "Bwd", "Rec", "ActSend", "GradSend", "AllReduce", "Optimizer"}

func validate(cfg *Config) error {
	if cfg.Depth < 1 || cfg.Micros < 1 {
		return fmt.Errorf("sim: bad shape depth=%d micros=%d", cfg.Depth, cfg.Micros)
	}
	if cfg.Micros >= 1<<24 {
		return fmt.Errorf("sim: %d micro-batches exceeds the executor's 2^24 limit", cfg.Micros)
	}
	if cfg.Depth >= 1<<16 {
		return fmt.Errorf("sim: depth %d exceeds the executor's 2^16 limit", cfg.Depth)
	}
	if len(cfg.Costs) != cfg.Depth {
		return fmt.Errorf("sim: %d cost entries for depth %d", len(cfg.Costs), cfg.Depth)
	}
	// A negative cost, or a speed factor that is not finite and
	// positive, makes a task end before it starts or goes through an
	// undefined float-to-int conversion.
	for s, c := range cfg.Costs {
		for i, d := range [...]simtime.Duration{c.Fwd, c.Bwd, c.Rec, c.ActSend, c.GradSend, c.AllReduce, c.Optimizer} {
			if d < 0 {
				return fmt.Errorf("sim: stage %d has negative %s %v", s, costFields[i], d)
			}
		}
	}
	if cfg.MaxInFlight < 0 {
		return fmt.Errorf("sim: negative MaxInFlight %d", cfg.MaxInFlight)
	}
	if (cfg.JitterCV > 0 || cfg.ComputeJitterCV > 0) && cfg.Rand == nil {
		return fmt.Errorf("sim: jitter requested without a random source")
	}
	if cfg.SpeedFactor != nil && len(cfg.SpeedFactor) != cfg.Depth {
		return fmt.Errorf("sim: %d speed factors for depth %d", len(cfg.SpeedFactor), cfg.Depth)
	}
	for s, f := range cfg.SpeedFactor {
		if !(f > 0) || math.IsInf(f, 1) {
			return fmt.Errorf("sim: stage %d has SpeedFactor %v, want finite and positive", s, f)
		}
	}
	if !cfg.Policy.Rule {
		if len(cfg.Orders) != cfg.Depth {
			return fmt.Errorf("sim: strict policy %q needs %d orders, got %d", cfg.Policy.Name, cfg.Depth, len(cfg.Orders))
		}
		s := &schedule.Schedule{Depth: cfg.Depth, Micros: cfg.Micros, Orders: cfg.Orders}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 2 * cfg.Depth
	}
	return nil
}

// dur applies compute jitter and per-stage speed factors to a mean
// kernel duration.
func (e *executor) dur(mean simtime.Duration, stage int) simtime.Duration {
	d := mean
	if e.cfg.SpeedFactor != nil {
		d = simtime.Duration(float64(d)*e.cfg.SpeedFactor[stage] + 0.5)
	}
	if e.cfg.ComputeJitterCV > 0 {
		d = e.cfg.Rand.Jitter(d, e.cfg.ComputeJitterCV)
	}
	return d
}

// netDur applies jitter to a transfer time (no speed factor — the
// network does not care which GPU is slow).
func (e *executor) netDur(mean simtime.Duration) simtime.Duration {
	if e.cfg.JitterCV > 0 {
		return e.cfg.Rand.Jitter(mean, e.cfg.JitterCV)
	}
	return mean
}

// try attempts to start work on stage s; called whenever the stage
// completes a task or a new input arrives.
func (e *executor) try(s int) {
	st := &e.stages[s]
	if st.busy || st.bwdLeft == 0 {
		return
	}
	now := e.q.Now()
	if e.cfg.Policy.Rule {
		e.tryRule(st, now)
	} else {
		e.tryStrict(st, now)
	}
}

// start executes task t on stage st beginning now.
func (e *executor) start(st *stageState, t schedule.Task, now simtime.Time, extra simtime.Duration) {
	c := e.cfg.Costs[st.idx]
	var mean simtime.Duration
	switch t.Kind {
	case schedule.Forward:
		mean = c.Fwd
	case schedule.Backward:
		mean = c.Bwd
	case schedule.Recompute:
		mean = c.Rec
	}
	d := e.dur(mean, st.idx) + extra
	end := now.Add(d)
	st.busy = true
	st.busyUntil = end
	st.busySum += d
	if t.Kind == schedule.Forward && t.Micro >= st.fwdHi {
		st.fwdHi = t.Micro + 1
	}
	if e.cfg.CollectTrace {
		e.trace = append(e.trace, TaskSpan{Stage: st.idx, Task: t, Start: now, End: end})
	}

	// Gradient-arrival announcement: the moment a backward starts, its
	// completion (and hence the gradient's arrival upstream) is known,
	// letting the upstream stage schedule a just-in-time recompute
	// (§3.2 constraint 1).
	if t.Kind == schedule.Backward && st.idx > 0 {
		up := &e.stages[st.idx-1]
		xfer := e.netDur(c.GradSend)
		arr := end.Add(xfer)
		up.gradAnnounce[t.Micro] = arr
		up.gradSenderEnd[t.Micro] = end
		e.arrive(up, up.gradArrival, evGradArrive, t.Micro, arr)
		// Wake upstream now so it can plan the recompute — unless it is
		// busy until strictly after now: that try would fire before its
		// completion and return at st.busy, and the completion's own
		// try sees the announcement.
		if !up.busy || up.busyUntil <= now {
			e.q.ScheduleCall(now, e.onEvent, evA(evTry, up.idx), 0)
		}
	}

	e.q.ScheduleCall(end, e.onEvent, evA(evComplete, st.idx), packTask(t))
}

// arrive delivers micro m's input (activation or gradient) to stage rx
// at instant arr: an event that records the instant and tries rx. When
// rx is busy until strictly after arr, that try would return at
// st.busy, so the instant is recorded now and no event is scheduled.
// Every earlier reader compares it against an earlier clock and sees
// "not arrived", as if unset; rx's completion is the first try that
// can see it. Keep the comparison strict: a completion exactly at arr
// fires first (it was scheduled earlier) and must not see the input.
func (e *executor) arrive(rx *stageState, arrivals []simtime.Time, kind int32, m int, arr simtime.Time) {
	if rx.busy && rx.busyUntil > arr {
		arrivals[m] = arr
		return
	}
	e.q.ScheduleCall(arr, e.onEvent, evA(kind, rx.idx), int32(m))
}

func (e *executor) complete(st *stageState, t schedule.Task, end simtime.Time) {
	st.busy = false
	switch t.Kind {
	case schedule.Forward:
		st.fwdDone[t.Micro] = true
		st.hot = t.Micro
		st.inFlight++
		if st.idx < e.cfg.Depth-1 {
			down := &e.stages[st.idx+1]
			xfer := e.netDur(e.cfg.Costs[st.idx].ActSend)
			arr := end.Add(xfer)
			down.fwdSenderEnd[t.Micro] = end
			e.arrive(down, down.actArrival, evActArrive, t.Micro, arr)
		} else {
			// Last stage: loss computed, gradient available locally.
			st.gradArrival[t.Micro] = end
			st.gradAnnounce[t.Micro] = end
			st.gradSenderEnd[t.Micro] = end
		}
	case schedule.Recompute:
		st.recDone[t.Micro] = true
		st.hot = t.Micro
		st.locked = t.Micro
	case schedule.Backward:
		st.bwdDone[t.Micro] = true
		st.bwdLeft--
		st.inFlight--
		st.lastBwd = end
		for st.bwdLow < e.cfg.Micros && st.bwdDone[st.bwdLow] {
			st.bwdLow++
		}
		if st.locked == t.Micro {
			st.locked = -1
		}
		if st.hot == t.Micro {
			st.hot = -1 // activations consumed
		}
		// Steady-state boundary: one stage-0 backward completes per
		// pipeline period, so this is where the cycle detector
		// fingerprints (and, on a repeat, fast-forwards) the run.
		if st.idx == 0 && e.ss.armed {
			e.ss.boundary(e, end)
		}
	}
	e.try(st.idx)
}

// backwardReady reports whether B(micro) can start now on st.
func (e *executor) backwardReady(st *stageState, micro int, now simtime.Time) bool {
	if !st.fwdDone[micro] || st.bwdDone[micro] {
		return false
	}
	if !st.recDone[micro] && st.hot != micro {
		return false
	}
	if e.cfg.Policy.SyncComm {
		return st.gradSenderEnd[micro] <= now
	}
	return st.gradArrival[micro] <= now
}

// syncExtra reports the receive time charged to the stage itself under
// SyncComm policies: the fraction of the transfer not hidden under
// compute (1−OverlapFrac).
func (e *executor) syncExtra(st *stageState, t schedule.Task) simtime.Duration {
	if !e.cfg.Policy.SyncComm {
		return 0
	}
	frac := 1 - e.cfg.Policy.OverlapFrac
	if frac <= 0 {
		return 0
	}
	var xfer simtime.Duration
	switch t.Kind {
	case schedule.Forward:
		if st.idx == 0 {
			return 0
		}
		xfer = e.netDur(e.cfg.Costs[st.idx-1].ActSend)
	case schedule.Backward:
		if st.idx == e.cfg.Depth-1 {
			return 0
		}
		xfer = e.netDur(e.cfg.Costs[st.idx+1].GradSend)
	default:
		return 0
	}
	return simtime.Duration(float64(xfer)*frac + 0.5)
}

// wake schedules a retry of st at t, the announced arrival of the
// gradient it waits for, deduplicating earlier wakes.
//
// Only SyncComm policies need it. Otherwise the gradient's arrival
// event at t fires first (it was scheduled before any wake could be),
// and its try starts the backward or recompute the gradient enables,
// since the backward cannot run before its gradient lands: the wake
// would find the stage busy. (Without an arrival event, see arrive,
// the stage is busy past t.) Under SyncComm the backward can run once
// the sender finishes, before t, so the stage may be idle at t, and
// the wake's try can start a forward whose sender finished at t — a
// change that brings no try of its own.
func (e *executor) wake(st *stageState, t simtime.Time) {
	if !e.cfg.Policy.SyncComm || t == never || t <= e.q.Now() {
		return
	}
	if st.wakeAt != never && st.wakeAt <= t {
		return
	}
	st.wakeAt = t
	e.q.ScheduleCall(t, e.onEvent, evA(evWake, st.idx), 0)
}
