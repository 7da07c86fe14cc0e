package scenario

import (
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// observed is the observability state both compiled scenario types
// share: the scenario, its continuous telemetry, the tracer and
// registry Observe attaches, and the run-once guard.
type observed struct {
	Scenario *Scenario

	// Series and Monitors are the continuous-telemetry state: created
	// at compile time when the scenario declares a telemetry or slos
	// block, or forced on by EnableTelemetry (the exporter commands).
	// Both nil — the zero-alloc disabled path, byte-identical output —
	// otherwise.
	Series   *obs.SeriesSet
	Monitors []*obs.Monitor

	// trace/met are the hooks Observe attaches; both nil (fully
	// disabled, bit-identical output) by default.
	trace *obs.Tracer
	met   *obs.Metrics

	// ran is set by the first Run, which consumes the compiled inputs.
	ran bool
}

// EnableTelemetry creates the series set (sampled per job under a
// "<job>/" prefix in fleet mode) and attaches the scenario's SLO
// monitors. Compiling calls it when the scenario declares telemetry;
// the exporter commands call it to force sampling on scenarios that do
// not. Idempotent.
func (o *observed) EnableTelemetry() {
	if o.Series != nil {
		return
	}
	ring := 0 // the obs default
	if o.Scenario.Telemetry != nil {
		ring = o.Scenario.Telemetry.Ring
	}
	o.Series = obs.NewSeriesSet(ring)
	o.Monitors = buildMonitors(o.Scenario, o.Series)
}

// Observe attaches a tracer and/or metrics registry before Run: spans
// land on the tracer (in fleet mode the market and the arbiter record
// too, and each job's track follows their control tracks), registry
// metrics, including the "wall."-prefixed self-profiling, on the
// registry, and the report gains the deterministic (SimOnly) snapshot.
// Either may be nil. With both nil the run is byte-identical to an
// unobserved one.
func (o *observed) Observe(tr *obs.Tracer, m *obs.Metrics) {
	o.trace, o.met = tr, m
}

// claim marks the compiled scenario as run and returns the scope the
// run records into, with the SLO monitors' breach hooks armed. Only
// the first claim succeeds: a run consumes its compiled inputs (the
// testbed's RNG stream, the fleet's market and meters), so a second
// run on them would silently diverge from the first.
func (o *observed) claim() (obs.Scope, error) {
	if o.ran {
		return obs.Scope{}, fmt.Errorf("scenario %s: compiled scenario already ran; compile it again to replay", o.Scenario.Name)
	}
	o.ran = true
	s := obs.Scope{Trace: o.trace, Metrics: o.met}
	if o.Series != nil {
		s.Series = o.Series
		if o.Scenario.Telemetry != nil {
			s.SampleEvery = o.Scenario.Telemetry.SampleEvery
		}
		o.armBreachHooks()
	}
	return s, nil
}

// armBreachHooks wires each monitor's OnBreach to the attached hooks:
// a typed breach counter and an instant on a lazily created "slo"
// trace track (created on first breach, so breach-free traces keep
// their exact track layout).
func (o *observed) armBreachHooks() {
	tr, met := o.trace, o.met
	if tr == nil && met == nil {
		return
	}
	var trk obs.TrackID
	for _, m := range o.Monitors {
		m.OnBreach = func(at simtime.Time, v float64) {
			met.Count("slo.breach."+m.Name, 1)
			if tr.Enabled() {
				if trk == 0 {
					trk = tr.Track("slo")
				}
				id := tr.Instant(trk, 0, at, "slo", m.Name)
				tr.SetArgs(id,
					obs.Str("expr", m.Expr),
					obs.Str("value", strconv.FormatFloat(v, 'g', -1, 64)))
			}
		}
	}
}

// finish returns a finished run's report sections: every monitor's
// outcome, the violations with enforce-mode breaches appended (the
// nonzero-exit path), and the deterministic (SimOnly) metrics snapshot
// of an observed run (nil when unobserved).
func (o *observed) finish(violations []string) ([]obs.SLOResult, []string, *obs.Snap) {
	var slos []obs.SLOResult
	for _, m := range o.Monitors {
		r := m.Result()
		slos = append(slos, r)
		if m.Enforce && !r.OK {
			violations = append(violations, fmt.Sprintf(
				"slo %s (%q) breached %d time(s), worst %g", r.Name, m.Expr, r.Breaches, r.Worst))
		}
	}
	if o.met == nil {
		return slos, violations, nil
	}
	snap := o.met.Snapshot(obs.SimOnly)
	return slos, violations, &snap
}

// telemetryDeclared reports whether the scenario asks for continuous
// sampling: an explicit telemetry block, or any SLO rule (monitors
// need the series to watch).
func telemetryDeclared(sc *Scenario) bool {
	return sc.Telemetry != nil || len(sc.SLOs) > 0
}

// buildMonitors compiles the scenario's SLO rules into online
// evaluators watching ss. In fleet mode each rule watches its job's
// prefixed series ("<job>/<series>"). Expressions were validated at
// parse time, so a parse failure here is a programming error.
func buildMonitors(sc *Scenario, ss *obs.SeriesSet) []*obs.Monitor {
	var ms []*obs.Monitor
	for _, sl := range sc.SLOs {
		series, agg, op, th, err := obs.ParseSLOExpr(sl.Expr)
		if err != nil {
			panic(fmt.Sprintf("scenario %s: unvalidated SLO %q: %v", sc.Name, sl.Expr, err))
		}
		if sl.Job != "" {
			series = sl.Job + "/" + series
		}
		m := &obs.Monitor{
			Name:      sl.EffectiveName(),
			Expr:      sl.Expr,
			Series:    series,
			Agg:       agg,
			Op:        op,
			Threshold: th,
			Window:    sl.Window,
			For:       sl.For,
			Enforce:   sl.Mode == "enforce",
			Job:       sl.Job,
		}
		ss.Watch(series, m.Observe)
		ms = append(ms, m)
	}
	return ms
}
