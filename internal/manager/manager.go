// Package manager implements the Varuna manager (§4.6): a control
// plane that tracks the spot-VM fleet through heartbeats, detects
// preemptions (missed heartbeats) and fail-stutter VMs (per-micro-batch
// compute-time outliers), grows the cluster through the provisioning
// API, and triggers job morphing whenever the usable GPU set changes.
// It also drives continuous checkpointing so that a preempted job
// resumes from the last mini-batch boundary.
package manager

import (
	"fmt"
	"sort"

	"repro/internal/autoconfig"
	"repro/internal/checkpoint"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/price"
	"repro/internal/restart"
	"repro/internal/simtime"
	"repro/internal/spot"
	"repro/internal/testbed"
)

// MorphPolicy selects how the manager prices reconfiguration downtime
// and whether it may decline an unprofitable morph.
type MorphPolicy int

const (
	// PolicyMorphOrHold prices each candidate reconfiguration with the
	// restart cost model and holds the current configuration when the
	// modeled downtime exceeds the discounted steady-state throughput
	// gain (the default).
	PolicyMorphOrHold MorphPolicy = iota
	// PolicyModeled always reconfigures on fleet changes but charges
	// the restart-model price instead of a constant.
	PolicyModeled
	// PolicyConstant charges the flat ConstOverhead per morph — the
	// paper's original accounting, kept for the restart-cost ablation.
	PolicyConstant
)

// String names the policy.
func (p MorphPolicy) String() string {
	switch p {
	case PolicyMorphOrHold:
		return "morph-or-hold"
	case PolicyModeled:
		return "modeled"
	case PolicyConstant:
		return "constant"
	default:
		return fmt.Sprintf("MorphPolicy(%d)", int(p))
	}
}

// Options tunes the §4.6 manager: checkpoint cadence, reconfiguration
// pricing and the fail-stutter detection threshold.
type Options struct {
	// CheckpointEvery is the checkpoint cadence in mini-batches.
	CheckpointEvery int
	// CheckpointOverhead is the stall per checkpoint (local SSD write;
	// cloud upload happens in the background, §4.5).
	CheckpointOverhead simtime.Duration
	// StragglerThreshold flags a VM whose compute heartbeat exceeds
	// the fleet median by this factor (§4.6 reports ~30% stutters).
	StragglerThreshold float64
	// Policy selects reconfiguration pricing: restart-model based
	// (with or without the hold option) or the legacy flat constant.
	Policy MorphPolicy
	// ConstOverhead is the flat per-morph downtime charged under
	// PolicyConstant (the paper's ~4-minute figure); ignored by the
	// modeled policies.
	ConstOverhead simtime.Duration
	// EventGapPrior seeds the fleet-event gap estimator before any
	// gap has been observed — the assumed stable-window length of the
	// first morph-or-hold decisions. Zero defers to the caller: a
	// scenario with "gap-prior: market" seeds it from the market's
	// analytic hazard (spot.Market.ExpectedNextEvent); otherwise
	// RunTimeline falls back to DefaultEventGapPrior.
	EventGapPrior simtime.Duration
	// HeartbeatEvery is the cadence at which the manager re-examines
	// compute heartbeats *between* fleet events. Historically the
	// fail-stutter detector only ran when the fleet changed, so a VM
	// degrading mid-segment stayed invisible until the next
	// allocation or preemption; periodic heartbeat checks surface the
	// anomaly within one interval, exclude the VM and re-measure the
	// mini-batch time. Zero disables mid-segment checks (the legacy
	// morph-segments-only behavior).
	HeartbeatEvery simtime.Duration
	// Prices is the spot price curve dollars are accounted against.
	// Nil disables cost accounting entirely (no meter, zero Dollars
	// fields) — the pre-dollar behavior.
	Prices *price.Curve
	// Meter, when non-nil, carries the cost accounting across runs: a
	// warm-resumed manager passes the meter restored by
	// restart.LoadSections so cumulative dollars continue instead of
	// restarting from zero. Nil builds a fresh meter from Prices.
	Meter *price.Meter
	// Objective selects what morph decisions optimize. The zero value
	// (max throughput) reproduces the pre-dollar decision rule
	// bit-identically; the dollar objectives additionally release
	// fleet capacity the chosen configuration cannot use and need a
	// price curve to decide against.
	Objective autoconfig.Objective
	// Obs is what the run records into. Its tracer receives causal
	// spans on Obs.Track: fleet-event instants (parented on the arbiter
	// span that caused them via spot.Event.Cause), morph decisions,
	// restart phases, heartbeat checks and training segments. Its
	// registry receives simulated morph-downtime histograms and (via
	// the Planner observer) wall-clock sweep self-profiling. Its series
	// set receives the SeriesNames signals under Obs.Prefix: GPU count,
	// throughput, cumulative dollars and $-per-kex, downtime and idle
	// fractions sampled every Obs.SampleEvery (DefaultSampleEvery when
	// zero) plus at every timeline event, and per-recovery latencies at
	// each post-preemption decision. The zero value records nothing at
	// zero cost: the run is bit-identical and allocation-identical to
	// an uninstrumented one.
	Obs obs.Scope
	// Replication is the checkpoint replication policy (§4.5 extended
	// across failure domains): shards are pushed to Replicas domains
	// spread at the policy's anti-affinity level, each checkpoint pays
	// the cross-domain push priced by restart.Model.ReplicationOverhead,
	// and a domain outage that would otherwise discard all progress
	// fails over to the surviving replicas instead. The zero value —
	// and any cluster without a defined topology — keeps the historical
	// single-copy behavior bit-identically.
	Replication checkpoint.Policy
	// MeasureStragglers wires the held fleet's unflagged slow VMs into
	// every segment measurement as testbed.JobConfig.ExtraSlow, so a
	// degrading VM shows up in the *measured* mini-batch time — not
	// just in its heartbeat pace. Sub-threshold stragglers (too mild
	// for StragglerThreshold to flag) then visibly slow the segment,
	// and a heartbeat check whose slow set drifted re-measures the
	// segment in place. Off by default: the historical manager
	// measured every segment as if the surviving fleet were healthy,
	// and scenario runs opt in.
	MeasureStragglers bool
}

// DefaultEventGapPrior is the stable-window assumption used when
// neither the caller nor a market supplied one.
const DefaultEventGapPrior = 30 * simtime.Minute

// DefaultSampleEvery is the periodic series-sampling cadence used when
// Options.Obs has a series set but no SampleEvery.
const DefaultSampleEvery = simtime.Minute

// DefaultOptions mirrors the deployment described in the paper, with
// reconfiguration downtime priced by the restart cost model rather
// than the paper's flat 4-minute constant.
func DefaultOptions() Options {
	return Options{
		CheckpointEvery:    8,
		CheckpointOverhead: 15 * simtime.Second,
		StragglerThreshold: 1.20,
		Policy:             PolicyMorphOrHold,
		ConstOverhead:      4 * simtime.Minute,
		HeartbeatEvery:     10 * simtime.Minute,
	}
}

// DetectStragglers returns the VM ids whose reported per-micro-batch
// compute time exceeds threshold × fleet median — the fail-stutter
// correction of §4.6. Needs at least 3 reports to be meaningful.
func DetectStragglers(heartbeats map[int]float64, threshold float64) []int {
	if len(heartbeats) < 3 {
		return nil
	}
	times := make([]float64, 0, len(heartbeats))
	for _, t := range heartbeats {
		times = append(times, t)
	}
	sort.Float64s(times)
	median := times[len(times)/2]
	var out []int
	for id, t := range heartbeats {
		if t > threshold*median {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// TimelinePoint is one sample of the training timeline (Figure 8).
type TimelinePoint struct {
	At simtime.Time
	// GPUs usable at this moment (excluding flagged stragglers).
	GPUs int
	// Config is the active P×D choice (zero if the job is down).
	Config autoconfig.Choice
	// ExPerSec is the whole-job throughput of the running segment.
	ExPerSec float64
	// Event labels what happened: "morph", "p" (replacement without
	// config change, as in Figure 8), "hold" (fleet changed but the
	// cost-aware decision kept the running config), "checkpoint",
	// "down", "".
	Event string
	// Downtime is the reconfiguration downtime charged at this event
	// (zero for hold/checkpoint/down points).
	Downtime simtime.Duration
	// DollarsSpent is this run's cumulative spend at this point (zero
	// when no price curve is configured; a warm meter's pre-restart
	// bill is excluded).
	DollarsSpent float64
	// Released counts VMs voluntarily returned to the market at this
	// decision — the shrink a dollar objective applies when held
	// capacity is uneconomical.
	Released int
}

// Stats summarizes a timeline run — the aggregate counters behind the
// Figure 8 narrative (morphs vs replacements, preemptions, rollback
// losses, downtime).
type Stats struct {
	// Examples is the total training examples processed.
	Examples float64
	// MiniBatches is completed mini-batch count.
	MiniBatches int
	// Morphs counts configuration changes; Replacements counts
	// morph events that kept the same P×D.
	Morphs, Replacements int
	// Preemptions and Allocations count fleet events.
	Preemptions, Allocations int
	// Checkpoints counts completed checkpoints; LostMiniBatches is
	// work discarded by preemption rollbacks.
	Checkpoints     int
	LostMiniBatches int
	// StragglersExcluded counts VMs removed for fail-stutter.
	StragglersExcluded int
	// Holds counts fleet changes where the cost-aware decision kept
	// the current configuration running instead of morphing.
	Holds int
	// Downtime is time spent not training (morphing, restarting,
	// checkpoint stalls).
	Downtime simtime.Duration
	// MorphDowntime is the reconfiguration share of Downtime —
	// stop + flush + redistribution + restart (or the flat constant
	// under PolicyConstant), excluding checkpoint stalls.
	MorphDowntime simtime.Duration
	// DollarsSpent is what THIS run spent (all buckets); the
	// per-bucket splits attribute it to training compute,
	// reconfiguration/checkpoint downtime and idle capacity. All four
	// stay zero when no price curve is configured. A warm meter
	// passed in via Options.Meter keeps the whole-job cumulative bill
	// on the meter itself — these fields exclude the pre-restart
	// spend so DollarsPerExample divides like for like.
	DollarsSpent    float64
	DollarsCompute  float64
	DollarsReconfig float64
	DollarsIdle     float64
	// VMsReleased counts VMs a dollar objective voluntarily returned
	// to the market (idle remainders, flagged stragglers, and
	// marginal replicas shed during price spikes).
	VMsReleased int
	// Failovers counts domain outages survived by restarting from
	// replicated checkpoint shards in other failure domains;
	// FailoverDowntime is the cross-domain fetch time those restarts
	// cost (included in Downtime). UnrecoverableOutages counts domain
	// outages that destroyed the only copies of checkpoint state and
	// discarded all progress. All three stay zero — and absent from
	// report JSON — on flat clusters.
	Failovers            int              `json:",omitempty"`
	UnrecoverableOutages int              `json:",omitempty"`
	FailoverDowntime     simtime.Duration `json:",omitempty"`
}

// DollarsPerExample is the run's realized training cost: this run's
// spend over this run's examples (zero before any example).
func (s Stats) DollarsPerExample() float64 {
	if s.Examples <= 0 {
		return 0
	}
	return s.DollarsSpent / s.Examples
}

// Manager replays a spot-market event trace against a testbed-backed
// job, morphing as the fleet changes (§4.6, Figure 8).
type Manager struct {
	// In is the morphing input set (spec, cut-points, calibration).
	In autoconfig.Inputs
	// TB is the ground-truth cluster that measures each segment.
	TB *testbed.Testbed
	// Opts tunes checkpoint cadence, morph overhead and straggler
	// detection.
	Opts Options
	// Plan owns the morph decisions and their lifetime caches: the
	// (spec, p, m, d) cost cache and the per-fleet-size decision memo
	// that make repeated sweeps across the Figure-8 timeline cheap.
	Plan *autoconfig.Planner
	// RM prices each reconfiguration from checkpoint bytes, the P×D
	// shape delta and the cluster fabric (internal/restart). Built for
	// the job's spec on the testbed's cluster by New; replace before a
	// run to model different hardware.
	RM *restart.Model
	// Degrade, NetDegrade and ObjChange are the manager's scenario
	// event schedules — the public injection API the scenario harness
	// (internal/scenario) compiles its event scripts into. Each slice
	// is applied in time order during RunTimeline; all three are
	// deterministic (no randomness beyond the manager's own seeded
	// streams), so a timeline replayed with the same schedules is
	// bit-identical.
	//
	// Degrade marks VMs whose compute pace degrades at a given
	// instant: fail-stutter onset (§4.6) when the factor exceeds
	// StragglerThreshold (caught by a heartbeat check within one
	// interval), or a sub-threshold straggler that survives detection
	// and — with Options.MeasureStragglers — drags the measured
	// mini-batch time instead.
	Degrade []Degradation
	// NetDegrade schedules network-degradation episodes: from each
	// entry's instant the inter-stage sends and allreduces of every
	// measurement take Factor× their healthy time (a later entry with
	// Factor 1 restores health). The running segment is re-measured in
	// place when an episode starts or ends.
	NetDegrade []NetDegradation
	// ObjChange re-targets the manager mid-run (a deadline pulled in,
	// a switch from throughput to dollar economics): at each entry's
	// instant the objective is swapped and the manager immediately
	// re-decides its configuration, as if the fleet had changed.
	// Non-throughput objectives require a price curve, like
	// Options.Objective.
	ObjChange []ObjectiveChange
	// Outages schedules correlated domain losses (zone-outage,
	// rack-outage): the scenario compiler pairs each entry with the
	// Preempt events that empty the domain, and the manager settles
	// whether the checkpoint survived (see DomainOutage). Requires a
	// cluster with a defined topology to have any effect.
	Outages []DomainOutage

	rng *simtime.Rand
	// hbRng draws the measurement noise of *periodic* heartbeat
	// samples. It is a separate stream from rng on purpose: the
	// morph-time straggler check keeps its historical draws, so
	// enabling or disabling mid-segment checks cannot shift the main
	// stream and silently re-randomize an otherwise identical
	// timeline.
	hbRng *simtime.Rand
	// legacyHoldDiscount pins the preempt-next hold discount to the
	// historical fixed ½ instead of the hazard-calibrated ratio —
	// test-only, to golden the direction the calibration moves hold
	// counts.
	legacyHoldDiscount bool
}

// Degradation marks a VM that starts fail-stuttering mid-run: from At
// on, its compute heartbeats read Factor× the healthy pace (1.35 =
// 35% slower, the magnitude §4.6 reports).
type Degradation struct {
	VM     int
	At     simtime.Time
	Factor float64
}

// NetDegradation marks a network-degradation onset: from At on, every
// network cost in segment measurements (activation/gradient sends,
// allreduces) is scaled by Factor. Factor 1 (or 0) restores a healthy
// fabric; the latest due entry wins.
type NetDegradation struct {
	At     simtime.Time
	Factor float64
}

// ObjectiveChange swaps the manager's optimization target at an
// instant — the scenario lever behind mid-run deadline changes.
type ObjectiveChange struct {
	At        simtime.Time
	Objective autoconfig.Objective
}

// New builds a manager with its own Planner for in.
func New(in autoconfig.Inputs, tb *testbed.Testbed, opts Options, seed int64) *Manager {
	return NewWithPlanner(in, tb, autoconfig.NewPlanner(in), opts, seed)
}

// NewWithPlanner builds a manager that plans through an existing
// Planner. Callers that keep a job-lifetime Planner (core.Job) pass it
// here so cache state survives across timeline replays.
func NewWithPlanner(in autoconfig.Inputs, tb *testbed.Testbed, plan *autoconfig.Planner, opts Options, seed int64) *Manager {
	rm := restart.NewModel(in.Spec, tb.Cluster)
	// Ground state redistribution in the testbed's own fabric, not a
	// parallel reconstruction of its contention rule: if the testbed's
	// network model is ever tuned, the restart price moves with it.
	rm.Fabric = tb.Fabric
	rm.Replication = opts.Replication
	return &Manager{
		In: in, TB: tb, Opts: opts, Plan: plan,
		RM:    rm,
		rng:   simtime.NewRand(seed),
		hbRng: simtime.NewRand(seed + 7919),
	}
}

// vmInfo tracks one live VM.
type vmInfo struct {
	gpus  int
	speed float64 // hidden fail-stutter factor
	slow  bool    // flagged by the manager
}

// timelineRun is the state of one RunTimeline replay. The control
// plane runs as an event loop on the simulated clock, like every
// other time-driven component in the system: each step applies the
// spot events due now, morphs or trains, and schedules its own
// continuation through the event queue (the step callback is
// registered once per run on the queue it runs on, so the loop adds no
// per-step closures).
type timelineRun struct {
	mg     *Manager
	feed   Feed
	hz     simtime.Time
	q      *simtime.EventQueue
	onStep simtime.Handle
	// gaps estimates the time to the next fleet event from the events
	// already applied — the spot-derived horizon of each morph-or-hold
	// decision.
	gaps *spot.GapEstimator

	points  []TimelinePoint
	stats   Stats
	live    map[int]*vmInfo
	now     simtime.Time
	current autoconfig.Choice
	running bool
	// sinceCkpt counts mini-batches since the last checkpoint (lost
	// on preemption).
	sinceCkpt int
	mbTime    simtime.Duration
	// Morph decisions are memoized by the Planner; the measured
	// mini-batch time per executed configuration is cached here (one
	// testbed measurement characterizes a stable segment). Only clean
	// measurements — healthy network, no measured stragglers — enter
	// the caches; exCur mirrors the running segment's throughput
	// whether or not it was cacheable.
	mbCache map[[2]int]simtime.Duration
	exCache map[[2]int]float64
	exCur   float64

	// meter accounts dollars over the timeline (nil without a price
	// curve); acc is the last metered instant — every clock advance
	// charges [acc, now] into a bucket, so the metered spans tile
	// [0, horizon] exactly. meanRate is the curve's horizon-mean
	// price, the reference the dollar objectives compare the current
	// price against.
	meter    *price.Meter
	acc      simtime.Time
	meanRate float64
	// baseDollars snapshots the meter at run start: a warm meter
	// (Options.Meter, restored across a restart) arrives with the
	// prior bill already on it, and this run's Stats and points
	// report only what THIS replay spent — $/example must divide
	// this-run dollars by this-run examples.
	baseDollars [price.NumBuckets]float64
	baseTotal   float64
	// released marks VMs voluntarily returned to the market: their
	// later trace preemptions are no longer ours to observe or pay
	// for.
	released map[int]bool
	// degs is the sorted mid-segment degradation schedule; degIdx the
	// next entry to apply. nextHB is the next periodic heartbeat
	// check.
	degs   []Degradation
	degIdx int
	nextHB simtime.Time
	// nets/objs are the sorted network-degradation and
	// objective-change schedules; netSlow is the factor currently in
	// force (1 = healthy) and obj the objective currently in force.
	// lastSlowFP fingerprints the straggler set the running segment
	// was measured with, so a heartbeat check can tell when the
	// measured pace went stale.
	nets       []NetDegradation
	netIdx     int
	netSlow    float64
	objs       []ObjectiveChange
	objIdx     int
	obj        autoconfig.Objective
	lastSlowFP string
	// outs is the sorted domain-outage schedule; outIdx the next entry
	// to settle. ckptDoms records which failure domains held shards of
	// the last durable checkpoint (nil until one exists, and again
	// after an unrecoverable loss); only maintained on topology-defined
	// clusters.
	outs     []DomainOutage
	outIdx   int
	ckptDoms map[hw.DomainLevel]map[int]bool

	// tr/trk/met mirror Options.Obs (nil-safe).
	// segSpan is the open training-segment span; cause is the latest
	// fleet-event instant, pending adoption as the next decision's
	// parent — the link that makes "which preemption triggered which
	// morph" a walkable chain.
	tr      *obs.Tracer
	trk     obs.TrackID
	met     *obs.Metrics
	segSpan obs.SpanID
	cause   obs.SpanID

	// series mirrors Options.Obs.Series (nil-safe, nil = sampling off).
	// sNames holds the prefixed series names precomputed at start so
	// sampling never rebuilds strings; nextSample is the next cadence
	// tick and sampleEvery the cadence. paidGPUSec/idleGPUSec
	// accumulate the gpu-seconds behind the idle-fraction signal, and
	// pendingPre queues preemption instants awaiting their next
	// decision point — the online mirror of the report's recovery
	// accounting.
	series      *obs.SeriesSet
	sNames      seriesNames
	nextSample  simtime.Time
	sampleEvery simtime.Duration
	paidGPUSec  float64
	idleGPUSec  float64
	pendingPre  []simtime.Time
}

// seriesNames precomputes the prefixed names of the per-run series.
type seriesNames struct {
	gpus, throughput, dollars, perKex, downFrac, idleFrac, recovery string
}

// SeriesNames returns, sorted, the base names of the series a sampled
// run records (each under Options.Obs.Prefix): the signals an SLO rule
// can watch.
func SeriesNames() []string {
	n := newSeriesNames("")
	names := []string{n.gpus, n.throughput, n.dollars, n.perKex, n.downFrac, n.idleFrac, n.recovery}
	sort.Strings(names)
	return names
}

func newSeriesNames(prefix string) seriesNames {
	return seriesNames{
		gpus:       prefix + "gpus",
		throughput: prefix + "throughput",
		dollars:    prefix + "dollars",
		perKex:     prefix + "dollars-per-kex",
		downFrac:   prefix + "downtime-fraction",
		idleFrac:   prefix + "idle-fraction",
		recovery:   prefix + "recovery",
	}
}

// sample records one value per registered signal at the given instant,
// evaluated against the run's current state.
func (r *timelineRun) sample(at simtime.Time) {
	g := 0.0
	ex := 0.0
	if r.running {
		ex = r.exCur
	}
	g = float64(r.usableGPUs())
	r.series.Record(r.sNames.gpus, at, g)
	r.series.Record(r.sNames.throughput, at, ex)
	if r.meter != nil {
		d := r.dollars()
		r.series.Record(r.sNames.dollars, at, d)
		if r.stats.Examples > 0 {
			r.series.Record(r.sNames.perKex, at, d/r.stats.Examples*1000)
		}
	}
	if at > 0 {
		r.series.Record(r.sNames.downFrac, at, r.stats.Downtime.Seconds()/at.Seconds())
	}
	if r.paidGPUSec > 0 {
		r.series.Record(r.sNames.idleFrac, at, r.idleGPUSec/r.paidGPUSec)
	}
}

// catchupSamples emits every cadence tick due at or before the current
// clock. Tick values reflect the state at the instant the loop crosses
// them — piecewise evaluation at loop boundaries, which is exact for
// the piecewise-constant signals sampled here.
func (r *timelineRun) catchupSamples() {
	for r.nextSample <= r.now {
		r.sample(r.nextSample)
		r.nextSample = r.nextSample.Add(r.sampleEvery)
	}
}

// drainRecoveries resolves queued preemption instants against a
// decision point: each pending preemption at or before the decision
// records one recovery-latency sample (seconds from preemption to the
// decision that re-planned the job).
func (r *timelineRun) drainRecoveries(at simtime.Time) {
	n := 0
	for _, pre := range r.pendingPre {
		if pre > at {
			break
		}
		r.series.Record(r.sNames.recovery, at, at.Sub(pre).Seconds())
		n++
	}
	if n > 0 {
		r.pendingPre = r.pendingPre[n:]
	}
}

// emit records one timeline point — the single ordered path every
// event kind goes through (morph/p/hold/checkpoint/down/net/straggler
// and plain samples alike), so the point stream and the trace see the
// same events in the same order. parent links the point's trace
// instant into the causal chain (the decision span for decision
// outcomes, the training segment for in-segment events).
func (r *timelineRun) emit(parent obs.SpanID, p TimelinePoint) {
	r.points = append(r.points, p)
	if r.series != nil {
		// On-event sampling: every timeline event lands a sample, and a
		// decision outcome resolves the recovery latency of the
		// preemptions it answered. Cadence ticks the clock jumped over
		// are emitted first so each series stays chronological.
		r.catchupSamples()
		switch p.Event {
		case "morph", "p", "hold", "down":
			r.drainRecoveries(p.At)
		}
		r.sample(p.At)
	}
	if !r.tr.Enabled() {
		return
	}
	name := p.Event
	if name == "" {
		name = "sample"
	}
	id := r.tr.Instant(r.trk, parent, p.At, "timeline", name)
	args := make([]obs.Arg, 0, 5)
	args = append(args, obs.I64("gpus", int64(p.GPUs)))
	if p.Config.P > 0 {
		args = append(args, obs.I64("P", int64(p.Config.P)), obs.I64("D", int64(p.Config.D)))
	}
	if p.Downtime > 0 {
		args = append(args, obs.I64("downtime_us", int64(p.Downtime)))
	}
	if p.Released > 0 {
		args = append(args, obs.I64("released", int64(p.Released)))
	}
	r.tr.SetArgs(id, args...)
}

// openSegment starts the resumed-training-segment span after a
// decision (morph, replacement or hold) left the job running.
func (r *timelineRun) openSegment(parent obs.SpanID) {
	if !r.tr.Enabled() {
		return
	}
	r.segSpan = r.tr.Begin(r.trk, parent, r.now, "manager", "train")
	r.tr.SetArgs(r.segSpan,
		obs.I64("P", int64(r.current.P)),
		obs.I64("D", int64(r.current.D)))
}

// tracePlan records the planner consultation under a decision span:
// one instant carrying the sweep and cache-activity deltas this
// decision cost (all deterministic counters — wall-clock sweep latency
// lives in the Metrics registry, never in the trace).
func (r *timelineRun) tracePlan(dspan obs.SpanID, before autoconfig.PlannerStats) {
	if !r.tr.Enabled() {
		return
	}
	after := r.mg.Plan.Stats()
	id := r.tr.Instant(r.trk, dspan, r.now, "planner", "sweep")
	r.tr.SetArgs(id,
		obs.I64("sweeps", int64(after.Sweeps-before.Sweeps)),
		obs.I64("cost_hits", int64(after.CostHits-before.CostHits)),
		obs.I64("cost_misses", int64(after.CostMisses-before.CostMisses)),
		obs.I64("decision_hits", int64(after.DecisionHits-before.DecisionHits)),
		obs.I64("decision_misses", int64(after.DecisionMisses-before.DecisionMisses)))
}

// paidGPUs sums the held fleet — everything the job pays for,
// flagged stragglers included (excluded from training, not from the
// bill, unless a dollar objective released them).
func (r *timelineRun) paidGPUs() int {
	g := 0
	for _, vm := range r.live {
		g += vm.gpus
	}
	return g
}

// chargeTraining meters [acc, to] as a training span: the running
// configuration's GPUs bill as compute, the held remainder as idle.
func (r *timelineRun) chargeTraining(to simtime.Time) {
	if (r.meter != nil || r.series != nil) && to > r.acc {
		pay := r.paidGPUs()
		used := 0
		if r.running {
			used = r.current.GPUsUsed
			if used > pay {
				used = pay
			}
		}
		if r.meter != nil {
			r.meter.Charge(price.Compute, r.acc, to, used)
			r.meter.Charge(price.Idle, r.acc, to, pay-used)
		}
		if r.series != nil {
			dur := to.Sub(r.acc).Seconds()
			r.paidGPUSec += dur * float64(pay)
			r.idleGPUSec += dur * float64(pay-used)
		}
	}
	if to > r.acc {
		r.acc = to
	}
}

// chargeDowntime meters [acc, to] as reconfiguration or checkpoint
// downtime: the whole held fleet is paid, nothing trains.
func (r *timelineRun) chargeDowntime(to simtime.Time) {
	if r.meter != nil && to > r.acc {
		r.meter.Charge(price.Reconfig, r.acc, to, r.paidGPUs())
	}
	if r.series != nil && to > r.acc {
		// Reconfiguration holds the whole fleet without training it, but
		// it is productive downtime, not idleness: only the paid total
		// accrues.
		r.paidGPUSec += to.Sub(r.acc).Seconds() * float64(r.paidGPUs())
	}
	if to > r.acc {
		r.acc = to
	}
}

// chargeIdle meters [acc, to] as idle: capacity held while nothing
// runs (a dead fleet waiting for allocations).
func (r *timelineRun) chargeIdle(to simtime.Time) {
	if r.meter != nil && to > r.acc {
		r.meter.Charge(price.Idle, r.acc, to, r.paidGPUs())
	}
	if r.series != nil && to > r.acc {
		dur := to.Sub(r.acc).Seconds()
		pay := float64(r.paidGPUs())
		r.paidGPUSec += dur * pay
		r.idleGPUSec += dur * pay
	}
	if to > r.acc {
		r.acc = to
	}
}

// dollars reports this run's cumulative spend for timeline points.
func (r *timelineRun) dollars() float64 { return r.meter.Total() - r.baseTotal }

// econ snapshots the economic context of a decision at the current
// instant.
func (r *timelineRun) econ() autoconfig.Econ {
	ec := autoconfig.Econ{
		Now:             r.now,
		DoneExamples:    r.stats.Examples,
		CheckpointEvery: r.mg.Opts.CheckpointEvery,
	}
	if r.meter != nil {
		ec.PerGPUHour = r.meter.Curve().At(r.now)
		ec.MeanPerGPUHour = r.meanRate
	}
	if r.gaps.KindObservations(spot.Preempt) > 0 {
		ec.PreemptEvery = r.gaps.ExpectedOf(spot.Preempt)
	}
	return ec
}

// releaseExcess returns held VMs a dollar objective cannot use to the
// market: every flagged straggler (paid, useless), then surplus
// healthy VMs — largest ids first, deterministic — until usable
// capacity matches the target configuration. Released VMs stop
// billing immediately and their future trace preemptions are ignored
// (they are the provider's problem now). A precomputed event trace
// cannot re-grant a released VM, but later allocations are fresh VMs
// and regrow the fleet as usual; the feed is notified so a live
// arbiter can return the capacity to circulation for other jobs.
func (r *timelineRun) releaseExcess(target int) int {
	ids := make([]int, 0, len(r.live))
	for id := range r.live {
		ids = append(ids, id)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	usable := r.usableGPUs()
	released := 0
	for _, id := range ids {
		vm := r.live[id]
		if !vm.slow {
			if usable-vm.gpus < target {
				continue
			}
			usable -= vm.gpus
		}
		delete(r.live, id)
		r.released[id] = true
		r.feed.Release(id, r.now)
		released++
	}
	r.stats.VMsReleased += released
	return released
}

// applyDegradations applies every scheduled degradation due by now to
// the VMs still held.
func (r *timelineRun) applyDegradations() {
	for r.degIdx < len(r.degs) && r.degs[r.degIdx].At <= r.now {
		d := r.degs[r.degIdx]
		r.degIdx++
		if vm, ok := r.live[d.VM]; ok && d.Factor > vm.speed {
			vm.speed = d.Factor
		}
	}
}

// measuredSlow maps the held fleet's unflagged slow VMs onto replica
// indices for a d-wide configuration — the ExtraSlow set a segment
// measurement executes with under Options.MeasureStragglers. Healthy
// and slow VMs are ranked together by id (deterministic) and assigned
// replicas round-robin; a replica keeps the worst factor mapped onto
// it. Flagged stragglers are already excluded from training and never
// slow a measurement; what this surfaces is exactly the sub-threshold
// degradation the detector lets through.
func (r *timelineRun) measuredSlow(d int) map[int]float64 {
	if !r.mg.Opts.MeasureStragglers || d < 1 {
		return nil
	}
	ids := make([]int, 0, len(r.live))
	for id, vm := range r.live {
		if !vm.slow {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var out map[int]float64
	for i, id := range ids {
		if s := r.live[id].speed; s > 1 {
			if out == nil {
				out = make(map[int]float64)
			}
			rep := i % d
			if s > out[rep] {
				out[rep] = s
			}
		}
	}
	return out
}

// slowFP fingerprints a measured-straggler set so heartbeat checks can
// detect drift since the last measurement.
func slowFP(m map[int]float64) string {
	if len(m) == 0 {
		return ""
	}
	reps := make([]int, 0, len(m))
	for rep := range m {
		reps = append(reps, rep)
	}
	sort.Ints(reps)
	var b []byte
	for _, rep := range reps {
		b = fmt.Appendf(b, "%d:%g;", rep, m[rep])
	}
	return string(b)
}

// applyNetDue advances the network-degradation schedule to the current
// instant and reports whether the in-force factor changed.
func (r *timelineRun) applyNetDue() bool {
	changed := false
	for r.netIdx < len(r.nets) && r.nets[r.netIdx].At <= r.now {
		f := r.nets[r.netIdx].Factor
		r.netIdx++
		if f <= 0 {
			f = 1
		}
		if f != r.netSlow {
			r.netSlow = f
			changed = true
		}
	}
	return changed
}

// applyObjDue advances the objective-change schedule to the current
// instant and reports whether the objective moved.
func (r *timelineRun) applyObjDue() bool {
	changed := false
	for r.objIdx < len(r.objs) && r.objs[r.objIdx].At <= r.now {
		r.obj = r.objs[r.objIdx].Objective
		r.objIdx++
		changed = true
	}
	return changed
}

// remeasure re-executes the running configuration on the testbed with
// the current straggler and network state and records a timeline point
// labeled event — the mid-segment path scenario conditions take into
// the *measured* mini-batch time (straggler onset below the detection
// threshold, a degrading network) without a reconfiguration.
func (r *timelineRun) remeasure(event string) bool {
	choice := r.current
	slow := r.measuredSlow(choice.D)
	ms, err := r.mg.TB.MeasureMiniBatch(testbed.JobConfig{
		Spec:      r.mg.In.Spec,
		Stages:    choice.Stages,
		M:         choice.M,
		Nm:        choice.Nm,
		D:         choice.D,
		ExtraSlow: slow,
		NetSlow:   r.netSlow,
		NoTrace:   true,
	})
	if err != nil {
		r.running = false
		return false
	}
	r.mbTime, r.exCur = ms.MiniBatchTime, ms.ExPerSec()
	r.lastSlowFP = slowFP(slow)
	r.emit(r.segSpan, TimelinePoint{
		At: r.now, GPUs: r.usableGPUs(), Config: choice, ExPerSec: r.exCur,
		Event: event, DollarsSpent: r.dollars(),
	})
	return true
}

// sampleStragglers runs one fail-stutter sweep: sample a compute
// heartbeat per healthy VM (in sorted-id order, so the id→noise-draw
// pairing — and hence the flagged set — is deterministic), flag
// outliers and report how many VMs were newly excluded. The noise
// source is a parameter because the two call sites own different
// streams: morph-time checks draw from the manager's main rng (the
// historical behavior), periodic heartbeat checks from the dedicated
// hbRng so their presence cannot shift the main stream.
func (r *timelineRun) sampleStragglers(rng *simtime.Rand) int {
	ids := make([]int, 0, len(r.live))
	for id, vm := range r.live {
		if !vm.slow {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	hb := make(map[int]float64, len(ids))
	for _, id := range ids {
		hb[id] = r.live[id].speed * (1 + 0.02*rng.NormFloat64())
	}
	flagged := DetectStragglers(hb, r.mg.Opts.StragglerThreshold)
	for _, id := range flagged {
		r.live[id].slow = true
		r.stats.StragglersExcluded++
	}
	return len(flagged)
}

// heartbeatCheck is the mid-segment fail-stutter sweep on the
// dedicated heartbeat noise stream.
func (r *timelineRun) heartbeatCheck() int {
	return r.sampleStragglers(r.mg.hbRng)
}

// usableGPUs sums the fleet, excluding flagged stragglers.
func (r *timelineRun) usableGPUs() int {
	g := 0
	for _, vm := range r.live {
		if !vm.slow {
			g += vm.gpus
		}
	}
	return g
}

// flagStragglers runs the morph-time fail-stutter sweep on the
// manager's main noise stream.
func (r *timelineRun) flagStragglers() int {
	return r.sampleStragglers(r.mg.rng)
}

// morph reacts to a fleet change. Fleet sizes are quantized (rounded
// down, ~2% steps) before the sweep: a one-GPU delta never changes the
// best configuration materially, and quantization keeps the Planner's
// decision memo hot across the constant single-VM churn of a spot
// fleet.
//
// Downtime is priced by the restart cost model (stop + checkpoint
// flush + state redistribution + process restart) — or the legacy
// constant under PolicyConstant — and under PolicyMorphOrHold a
// voluntary reconfiguration that would not pay for itself before the
// next expected fleet event is declined and the job keeps training in
// its current shape. forced marks fleet changes the running config
// cannot survive (a preemption broke a pipeline): those always
// restart. A freshly flagged fail-stutter VM forces a restart the same
// way — excluding a straggler from a running pipeline IS a
// reconfiguration, so holding through one would credit the exclusion
// for free.
func (r *timelineRun) morph(label string, forced bool) {
	if r.flagStragglers() > 0 {
		forced = true
	}
	g := r.usableGPUs()
	if q := g / 50; q > 0 {
		g -= g % (q + 1)
	}
	// Work completed since the last checkpoint must be flushed before
	// state can move; a preemption path arrives with sinceCkpt already
	// rolled back to 0, so nothing (spurious) is flushed there.
	dirty := r.running && r.sinceCkpt > 0

	// A decision interrupts the running segment; the fleet-event
	// instant that triggered it (r.cause) becomes the decision's
	// parent, completing the market → arbiter → manager chain.
	r.tr.End(r.segSpan, r.now)
	r.segSpan = 0
	var dspan obs.SpanID
	var pstat autoconfig.PlannerStats
	if r.tr.Enabled() {
		dspan = r.tr.Begin(r.trk, r.cause, r.now, "manager", "decision")
		r.tr.SetArgs(dspan, obs.Str("label", label), obs.I64("gpus", int64(g)))
		pstat = r.mg.Plan.Stats()
	}
	r.cause = 0

	obj := r.obj
	var choice autoconfig.Choice
	var costs restart.Costs
	var down simtime.Duration
	var err error
	switch {
	case r.mg.Opts.Policy == PolicyConstant:
		// The paper's flat-constant ablation predates the dollar
		// objectives and ignores them: always the throughput-best.
		choice, err = r.mg.Plan.Best(g)
		down = r.mg.Opts.ConstOverhead
	case r.mg.Opts.Policy == PolicyMorphOrHold && r.running && !forced:
		hz := autoconfig.Horizon{Until: r.gaps.Expected()}
		if k, ok := r.gaps.NextKind(); ok && k == spot.Preempt {
			hz.PreemptNext = true
			// Mid-burst the pooled gap overstates the stable window:
			// the preemption track's own cadence is the tighter bound.
			if pre := r.gaps.ExpectedOf(spot.Preempt); pre < hz.Until {
				hz.Until = pre
			}
			// Calibrate the hold discount from the per-kind hazard
			// ratio once both tracks have observed gaps: the window
			// fraction an allocation (rather than the forecast
			// preemption) would arrive first in. Reclaim bursts push
			// it below the legacy ½; balanced traffic reproduces it.
			if !r.mg.legacyHoldDiscount &&
				r.gaps.KindObservations(spot.Alloc) > 0 && r.gaps.KindObservations(spot.Preempt) > 0 {
				ga := r.gaps.ExpectedOf(spot.Alloc)
				gp := r.gaps.ExpectedOf(spot.Preempt)
				d := float64(gp) / float64(gp+ga)
				if d < 0.1 {
					d = 0.1
				}
				if d > 0.9 {
					d = 0.9
				}
				hz.HoldDiscount = d
			}
		}
		var dec autoconfig.MorphDecision
		dec, err = r.mg.Plan.BestOrHoldObjective(g, r.current, true, r.mg.RM, hz, dirty, obj, r.econ())
		if err == nil && !dec.Morph {
			released := 0
			if obj.Shrinks() {
				released = r.releaseExcess(obj.RetainGPUs(r.current.GPUsUsed, r.econ()))
			}
			r.stats.Holds++
			r.tracePlan(dspan, pstat)
			r.tr.End(dspan, r.now)
			r.openSegment(dspan)
			r.emit(dspan, TimelinePoint{
				At: r.now, GPUs: g, Config: r.current,
				ExPerSec:     r.exCur,
				Event:        "hold",
				DollarsSpent: r.dollars(),
				Released:     released,
			})
			return
		}
		choice, costs = dec.Choice, dec.Costs
		down = costs.Total()
	default:
		// PolicyModeled, a cold start, or a forced restart: morph to
		// the objective's best and charge the modeled price.
		choice, err = r.mg.Plan.BestFor(g, obj, r.econ())
		if err == nil {
			var old restart.Assignment
			if r.running {
				old = restart.Assignment{Stages: r.current.Stages, D: r.current.D}
			}
			costs = r.mg.RM.Price(old, restart.Assignment{Stages: choice.Stages, D: choice.D}, dirty)
			down = costs.Total()
		}
	}
	r.tracePlan(dspan, pstat)
	if err != nil {
		r.running = false
		r.emit(dspan, TimelinePoint{At: r.now, GPUs: g, Event: "down", DollarsSpent: r.dollars()})
		r.tr.End(dspan, r.now)
		return
	}
	released := 0
	if obj.Shrinks() {
		// The release takes effect at the decision instant, so the
		// downtime below bills the shrunken fleet.
		released = r.releaseExcess(obj.RetainGPUs(choice.GPUsUsed, r.econ()))
	}
	r.chargeDowntime(r.now.Add(down))
	r.stats.Downtime += down
	r.stats.MorphDowntime += down
	if r.tr.Enabled() && down > 0 {
		if costs.Total() > 0 {
			restart.TracePhases(r.tr, r.trk, dspan, r.now, costs)
		} else {
			// PolicyConstant has no phase breakdown: one flat span.
			id := r.tr.Begin(r.trk, dspan, r.now, "restart", "const")
			r.tr.End(id, r.now.Add(down))
		}
	}
	r.met.Observe("manager.morph_downtime_us", float64(down))
	r.now = r.now.Add(down)
	if dirty {
		// The morph's flush persisted everything since the last
		// checkpoint (that is what the Flush phase priced, and what the
		// constant's bundled overhead always included): the new segment
		// resumes from this mini-batch boundary, not the old cadence.
		r.sinceCkpt = 0
		r.recordCheckpointDomains()
	}
	if r.running && choice.P == r.current.P && choice.D == r.current.D {
		label = "p" // replacement, no config change (Figure 8)
		r.stats.Replacements++
	} else {
		r.stats.Morphs++
	}
	r.current = choice
	r.running = true
	// One measured mini-batch characterizes the segment. The manager
	// only reads summary metrics, so the measurement skips trace
	// collection.
	key := [2]int{choice.P, choice.D}
	slow := r.measuredSlow(choice.D)
	clean := len(slow) == 0 && r.netSlow == 1
	if mb, ok := r.mbCache[key]; clean && ok {
		r.mbTime, r.exCur = mb, r.exCache[key]
	} else {
		ms, err := r.mg.TB.MeasureMiniBatch(testbed.JobConfig{
			Spec:      r.mg.In.Spec,
			Stages:    choice.Stages,
			M:         choice.M,
			Nm:        choice.Nm,
			D:         choice.D,
			ExtraSlow: slow,
			NetSlow:   r.netSlow,
			NoTrace:   true,
		})
		if err != nil {
			r.running = false
			r.tr.End(dspan, r.now)
			return
		}
		if clean {
			r.mbCache[key] = ms.MiniBatchTime
			r.exCache[key] = ms.ExPerSec()
		}
		r.mbTime, r.exCur = ms.MiniBatchTime, ms.ExPerSec()
	}
	r.lastSlowFP = slowFP(slow)
	r.tr.End(dspan, r.now)
	r.openSegment(dspan)
	r.emit(dspan, TimelinePoint{
		At: r.now, GPUs: g, Config: choice, ExPerSec: r.exCur,
		Event: label, Downtime: down,
		DollarsSpent: r.dollars(), Released: released,
	})
}

// applyEvent mutates the fleet for one spot event; it reports whether
// the event was a preemption (which forces a checkpoint rollback).
func (r *timelineRun) applyEvent(e spot.Event) bool {
	switch e.Kind {
	case spot.Alloc:
		speed := 1.0
		if r.mg.rng.Float64() < 0.05 { // ~1 in 20 VMs fail-stutters
			speed = 1.25 + 0.15*r.mg.rng.Float64()
		}
		r.live[e.VM] = &vmInfo{gpus: e.GPUs, speed: speed}
		r.stats.Allocations++
		return false
	case spot.Preempt:
		delete(r.live, e.VM)
		r.stats.Preemptions++
		return true
	}
	return false
}

// reschedule queues the next step at the run's current clock; past the
// horizon the loop simply stops scheduling and the queue drains.
func (r *timelineRun) reschedule() {
	if r.now < r.hz {
		r.q.ScheduleCall(r.now, r.onStep, 0, 0)
	}
}

// step is one iteration of the manager's control loop: apply all spot
// events due now (batching simultaneous arrivals into one morph), roll
// back on preemption, morph when the fleet changed, otherwise train
// until the next event or the horizon.
func (r *timelineRun) step(int32, int32) {
	r.applyDegradations()
	netChanged := r.applyNetDue()
	objChanged := r.applyObjDue()
	fleetChanged := false
	preempted := false
	for {
		ev, ok := r.feed.Pop(r.now)
		if !ok {
			break
		}
		if ev.Kind == spot.Preempt && r.released[ev.VM] {
			// A VM we already returned to the market: the provider
			// reclaiming it is no longer our fleet event.
			continue
		}
		r.gaps.ObserveKind(ev.At, ev.Kind)
		pre := r.applyEvent(ev)
		if r.tr.Enabled() {
			name := "alloc"
			if pre {
				name = "preempt"
			}
			id := r.tr.Instant(r.trk, obs.SpanID(ev.Cause), r.now, "fleet", name)
			r.tr.SetArgs(id, obs.I64("vm", int64(ev.VM)), obs.I64("gpus", int64(ev.GPUs)))
			// The decision this step ends in parents on the most telling
			// event: the latest preemption, else the first arrival.
			if pre || r.cause == 0 {
				r.cause = id
			}
		}
		preempted = preempted || pre
		fleetChanged = true
	}
	if preempted && r.series != nil {
		// One recovery per preemption instant: simultaneous events batch
		// into one step, so one queue entry covers the burst. The next
		// decision emit resolves it into a recovery-latency sample.
		r.pendingPre = append(r.pendingPre, r.now)
	}
	if preempted && r.running {
		if r.tr.Enabled() && r.sinceCkpt > 0 {
			id := r.tr.Instant(r.trk, r.cause, r.now, "manager", "rollback")
			r.tr.SetArgs(id, obs.I64("lost_minibatches", int64(r.sinceCkpt)))
		}
		// Roll back to the last checkpoint.
		r.stats.LostMiniBatches += r.sinceCkpt
		r.stats.Examples -= float64(r.sinceCkpt * r.current.Examples)
		r.stats.MiniBatches -= r.sinceCkpt
		r.sinceCkpt = 0
	}
	r.applyOutagesDue()
	if !fleetChanged && !netChanged && !objChanged && !r.running && r.feed.Driven() {
		// An eventless wake while the job is down: driven feeds wake
		// the loop every arbiter tick, so without a fleet or schedule
		// change there is nothing to re-decide — idle forward to the
		// next wake instead of re-attempting (and re-logging) a morph
		// that cannot succeed any better than last time. Unreachable
		// on pregenerated traces, which only wake the loop at event
		// times.
		if at, ok := r.feed.NextAt(r.now); ok {
			at = simtime.Max(r.now, at)
			r.chargeIdle(at)
			r.now = at
			r.reschedule()
		}
		return
	}
	if fleetChanged || !r.running {
		r.morphAndReschedule(preempted)
		return
	}
	if objChanged {
		// A scheduled objective change re-decides immediately — the whole
		// point of a deadline pull-in is that holding is no longer safe.
		r.morphAndReschedule(false)
		return
	}
	if netChanged && !r.remeasure("net") {
		return
	}

	// Train until the next event (or wake, for a driven feed) or the
	// horizon.
	next := r.hz
	if at, ok := r.feed.NextAt(r.now); ok && at < next {
		next = at
	}
	for r.now < next {
		r.now = r.now.Add(r.mbTime)
		if r.series != nil && r.nextSample <= r.now {
			r.catchupSamples()
		}
		r.stats.MiniBatches++
		r.stats.Examples += float64(r.current.Examples)
		r.sinceCkpt++
		if r.sinceCkpt >= r.mg.Opts.CheckpointEvery {
			r.chargeTraining(r.now)
			// A replicated checkpoint also pays the cross-domain shard
			// push (zero with replication off or on flat clusters).
			stall := r.mg.Opts.CheckpointOverhead +
				r.mg.RM.ReplicationOverhead(restart.Assignment{Stages: r.current.Stages, D: r.current.D})
			r.now = r.now.Add(stall)
			r.chargeDowntime(r.now)
			r.stats.Downtime += stall
			r.stats.Checkpoints++
			r.sinceCkpt = 0
			r.recordCheckpointDomains()
			r.emit(r.segSpan, TimelinePoint{
				At: r.now, GPUs: r.usableGPUs(), Config: r.current,
				ExPerSec:     float64(r.current.Examples) / r.mbTime.Seconds(),
				Event:        "checkpoint",
				DollarsSpent: r.dollars(),
			})
		}
		// Periodic heartbeat check between fleet events: a VM whose
		// compute pace degraded mid-segment is flagged here, within
		// one interval of the onset, instead of surviving undetected
		// until the next allocation or preemption. A flag forces a
		// reconfiguration (excluding a VM from a running pipeline IS
		// one) and invalidates the segment's cached measurement so
		// the testbed re-measures the mini-batch time.
		if r.mg.Opts.HeartbeatEvery > 0 && r.now >= r.nextHB {
			r.nextHB = r.now.Add(r.mg.Opts.HeartbeatEvery)
			r.applyDegradations()
			if flagged := r.heartbeatCheck(); flagged > 0 {
				if r.tr.Enabled() {
					id := r.tr.Instant(r.trk, r.segSpan, r.now, "manager", "heartbeat")
					r.tr.SetArgs(id, obs.I64("flagged", int64(flagged)))
					// A flagged fail-stutter VM is what forces the
					// reconfiguration below: the heartbeat is its cause.
					r.cause = id
				}
				r.chargeTraining(r.now)
				key := [2]int{r.current.P, r.current.D}
				delete(r.mbCache, key)
				delete(r.exCache, key)
				r.morphAndReschedule(true)
				return
			}
			// Sub-threshold drift: the sweep flagged nothing, but under
			// MeasureStragglers the set of slow-but-tolerated VMs may
			// still have changed since the segment was measured, and the
			// measured mini-batch time must follow it.
			if r.mg.Opts.MeasureStragglers {
				if fp := slowFP(r.measuredSlow(r.current.D)); fp != r.lastSlowFP {
					r.chargeTraining(r.now)
					if !r.remeasure("straggler") {
						return
					}
				}
			}
		}
		// Scheduled conditions land at mini-batch boundaries mid-segment:
		// an objective change forces a fresh decision, a network change
		// re-measures the running configuration in place.
		if r.applyObjDue() {
			r.chargeTraining(r.now)
			r.morphAndReschedule(false)
			return
		}
		if r.applyNetDue() {
			r.chargeTraining(r.now)
			if !r.remeasure("net") {
				return
			}
		}
	}
	r.chargeTraining(r.now)
	r.reschedule()
}

// morphAndReschedule runs one reconfiguration and queues the loop's
// continuation; with nothing usable it bills the gap as idle and
// fast-forwards to the next fleet event.
func (r *timelineRun) morphAndReschedule(forced bool) {
	r.morph("morph", forced)
	if !r.running {
		if at, ok := r.feed.NextAt(r.now); ok {
			at = simtime.Max(r.now, at)
			r.chargeIdle(at)
			r.now = at
			r.reschedule()
		}
		return
	}
	r.reschedule()
}

// RunTimeline replays events until horizon and returns the timeline and
// statistics. Fleet changes trigger morphing; a preemption additionally
// rolls the job back to the last checkpoint. Throughput within a stable
// segment is measured once on the testbed and reused; morph decisions
// come from the manager's Planner, whose caches persist across the
// whole timeline (and across timelines, if the caller shares one
// Planner between runs).
func (mg *Manager) RunTimeline(events []spot.Event, horizon simtime.Duration) ([]TimelinePoint, Stats, error) {
	run, err := mg.StartOn(new(simtime.EventQueue), &sliceFeed{events: events}, horizon)
	if err != nil {
		return nil, Stats{}, err
	}
	run.r.q.Run(0)
	points, stats := run.Finish()
	return points, stats, nil
}

// Run is a timeline replay in flight on a shared event queue — the
// handle the fleet arbiter holds per job. The control loop schedules
// itself through the queue; when the queue drains past the horizon,
// Finish publishes the timeline and statistics.
type Run struct {
	r        *timelineRun
	finished bool
}

// StartOn builds a timeline run against the given feed and schedules
// its first control-loop step on q, without running the queue. Several
// runs can share one queue — each schedules only its own continuation,
// and equal-time callbacks fire in scheduling order — which is how the
// arbiter co-simulates N jobs and its own probe loop on one clock.
func (mg *Manager) StartOn(q *simtime.EventQueue, feed Feed, horizon simtime.Duration) (*Run, error) {
	prior := mg.Opts.EventGapPrior
	if prior <= 0 {
		prior = DefaultEventGapPrior
	}
	r := &timelineRun{
		mg:       mg,
		feed:     feed,
		hz:       simtime.Time(horizon),
		q:        q,
		gaps:     spot.NewGapEstimator(prior),
		live:     make(map[int]*vmInfo),
		mbCache:  make(map[[2]int]simtime.Duration),
		exCache:  make(map[[2]int]float64),
		released: make(map[int]bool),
		tr:       mg.Opts.Obs.Trace,
		trk:      mg.Opts.Obs.Track,
		met:      mg.Opts.Obs.Metrics,
	}
	if r.met.Enabled() {
		mg.Plan.SetObserver(r.met)
	}
	if o := mg.Opts.Obs; o.Series.Enabled() {
		r.series = o.Series
		r.sNames = newSeriesNames(o.Prefix)
		r.sampleEvery = o.SampleEvery
		if r.sampleEvery <= 0 {
			r.sampleEvery = DefaultSampleEvery
		}
		r.nextSample = simtime.Time(r.sampleEvery)
	}
	switch {
	case mg.Opts.Meter != nil:
		// A warm meter carries cumulative spend across manager
		// restarts (restored by restart.LoadSections).
		r.meter = mg.Opts.Meter
	case mg.Opts.Prices != nil:
		r.meter = price.NewMeter(mg.Opts.Prices)
	}
	if r.meter != nil {
		r.meanRate = r.meter.Curve().Mean(0, simtime.Time(horizon))
		for b := price.Bucket(0); b < price.NumBuckets; b++ {
			r.baseDollars[b] = r.meter.InBucket(b)
		}
		r.baseTotal = r.meter.Total()
	}
	if len(mg.Degrade) > 0 {
		r.degs = append(r.degs, mg.Degrade...)
		sort.SliceStable(r.degs, func(i, j int) bool { return r.degs[i].At < r.degs[j].At })
	}
	r.netSlow = 1
	r.obj = mg.Opts.Objective
	if len(mg.NetDegrade) > 0 {
		r.nets = append(r.nets, mg.NetDegrade...)
		sort.SliceStable(r.nets, func(i, j int) bool { return r.nets[i].At < r.nets[j].At })
	}
	if len(mg.ObjChange) > 0 {
		for _, oc := range mg.ObjChange {
			if err := oc.Objective.Validate(); err != nil {
				return nil, fmt.Errorf("manager: scheduled objective at %v: %w", oc.At, err)
			}
			if oc.Objective.Kind != autoconfig.ObjMaxThroughput && r.meter == nil {
				return nil, fmt.Errorf("manager: scheduled objective %v at %v needs a price curve", oc.Objective.Kind, oc.At)
			}
		}
		r.objs = append(r.objs, mg.ObjChange...)
		sort.SliceStable(r.objs, func(i, j int) bool { return r.objs[i].At < r.objs[j].At })
	}
	r.outs = sortOutages(mg.Outages)
	r.nextHB = simtime.Time(mg.Opts.HeartbeatEvery)
	r.onStep = q.Register(r.step)
	r.reschedule()
	return &Run{r: r}, nil
}

// ExamplesDone reports the examples trained so far — live progress the
// arbiter reads mid-run to compute deadline-urgency bids.
func (ru *Run) ExamplesDone() float64 { return ru.r.stats.Examples }

// Finish publishes the run's timeline and statistics after the shared
// queue has drained: it bills any unmetered tail and folds the meter
// totals into Stats. Idempotent.
func (ru *Run) Finish() ([]TimelinePoint, Stats) {
	r := ru.r
	if ru.finished {
		return r.points, r.stats
	}
	ru.finished = true
	r.tr.End(r.segSpan, r.now)
	if r.stats.Examples < 0 {
		r.stats.Examples = 0
	}
	if (r.meter != nil || r.series != nil) && r.acc < r.hz {
		// Bill any unmetered tail (a dead fleet outliving its last
		// event).
		r.chargeIdle(r.hz)
	}
	if r.meter != nil {
		r.stats.DollarsSpent = r.meter.Total() - r.baseTotal
		r.stats.DollarsCompute = r.meter.InBucket(price.Compute) - r.baseDollars[price.Compute]
		r.stats.DollarsReconfig = r.meter.InBucket(price.Reconfig) - r.baseDollars[price.Reconfig]
		r.stats.DollarsIdle = r.meter.InBucket(price.Idle) - r.baseDollars[price.Idle]
	}
	if r.series != nil {
		// Emit any cadence ticks between the last event and the horizon,
		// then close every series with a final sample at the horizon.
		if r.now < r.hz {
			r.now = r.hz
		}
		r.catchupSamples()
		r.sample(r.hz)
	}
	return r.points, r.stats
}

// Validate sanity-checks options.
func (o Options) Validate() error {
	if o.CheckpointEvery < 1 {
		return fmt.Errorf("manager: CheckpointEvery must be ≥ 1")
	}
	if o.StragglerThreshold <= 1 {
		return fmt.Errorf("manager: StragglerThreshold must exceed 1")
	}
	if o.Policy < PolicyMorphOrHold || o.Policy > PolicyConstant {
		return fmt.Errorf("manager: unknown morph policy %d", int(o.Policy))
	}
	if o.Policy == PolicyConstant && o.ConstOverhead <= 0 {
		return fmt.Errorf("manager: PolicyConstant needs ConstOverhead > 0")
	}
	if o.HeartbeatEvery < 0 {
		return fmt.Errorf("manager: HeartbeatEvery must be >= 0")
	}
	if err := o.Objective.Validate(); err != nil {
		return err
	}
	if o.Objective.Kind != autoconfig.ObjMaxThroughput && o.Prices == nil && o.Meter == nil {
		return fmt.Errorf("manager: objective %v needs a price curve (Options.Prices or Options.Meter)", o.Objective.Kind)
	}
	return nil
}
