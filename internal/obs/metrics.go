package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Metrics is a typed registry of counters, gauges and histograms the
// instrumented stack reports into: recovery latencies, morph downtime,
// sweep wall-times, cache hit rates, per-job dollar buckets. A nil
// *Metrics is the disabled registry (every method no-ops), the same
// discipline as the Tracer.
//
// Two kinds of values coexist and must never be conflated:
//
//   - simulated-time metrics (morph downtime, recovery latency) are
//     deterministic: a replayed scenario reports them bit-identically;
//   - wall-clock self-profiling (planner sweep latency, arbiter tick
//     latency — the ROADMAP item 2 measurement baseline) varies run to
//     run by nature.
//
// The convention separating them is the name prefix: "wall." metrics
// hold wall-clock observations, everything else is simulated-time or
// count data. Snapshot can exclude the wall section
// (Snapshot(SimOnly)) for byte-stability assertions.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*hist
}

// NewMetrics builds an enabled registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Enabled reports whether the registry records anything.
func (m *Metrics) Enabled() bool { return m != nil }

// Count adds delta to a named counter.
func (m *Metrics) Count(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.counters == nil {
		m.counters = make(map[string]int64)
	}
	m.counters[name] += delta
	m.mu.Unlock()
}

// Gauge sets a named gauge to its latest value.
func (m *Metrics) Gauge(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.gauges == nil {
		m.gauges = make(map[string]float64)
	}
	m.gauges[name] = v
	m.mu.Unlock()
}

// Observe records one sample into a named histogram. Units are the
// caller's convention — the instrumented stack uses microseconds for
// both simulated durations and wall-clock latencies (suffix "_us").
func (m *Metrics) Observe(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.hists == nil {
		m.hists = make(map[string]*hist)
	}
	h := m.hists[name]
	if h == nil {
		h = &hist{}
		m.hists[name] = h
	}
	h.observe(v)
	m.mu.Unlock()
}

// histBuckets is the bucket count of the fixed log2 layout: bucket i
// holds samples in [2^(i-1), 2^i) (bucket 0 holds < 1), so 64 buckets
// cover sub-microsecond to ~292 years in microseconds.
const histBuckets = 64

// hist is a fixed-layout log2 histogram: allocation-free observation,
// deterministic quantile estimates.
type hist struct {
	counts     [histBuckets]int64
	n          int64
	sum        float64
	minV, maxV float64
}

func (h *hist) observe(v float64) {
	b := 0
	if v >= 1 {
		b = int(math.Floor(math.Log2(v))) + 1
		if b >= histBuckets {
			b = histBuckets - 1
		}
	}
	h.counts[b]++
	if h.n == 0 || v < h.minV {
		h.minV = v
	}
	if h.n == 0 || v > h.maxV {
		h.maxV = v
	}
	h.n++
	h.sum += v
}

// quantile estimates q ∈ [0,1] from the bucket layout: the upper bound
// of the bucket containing the q-th sample, clamped to the observed
// max — deterministic, within 2× of the true value.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n-1)) + 1
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			// Upper bound of bucket b: bucket 0 is [0,1), bucket b≥1 is
			// [2^(b-1), 2^b).
			return math.Min(math.Exp2(float64(b)), h.maxV)
		}
	}
	return h.maxV
}

// HistSnapshot summarizes one histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// SnapshotMode selects what Snapshot includes.
type SnapshotMode int

const (
	// All includes every metric, wall-clock self-profiling included.
	All SnapshotMode = iota
	// SimOnly excludes "wall."-prefixed metrics — the deterministic
	// subset a byte-stability assertion can compare across replays.
	SimOnly
	// WallOnly includes only the "wall."-prefixed self-profiling
	// metrics — the non-deterministic complement of SimOnly.
	WallOnly
)

// Snap is the serializable registry snapshot. Map keys marshal in
// sorted order (encoding/json), so identical values produce identical
// bytes.
type Snap struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry. Nil registries snapshot to the zero
// Snap.
func (m *Metrics) Snapshot(mode SnapshotMode) Snap {
	var s Snap
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	keep := func(name string) bool {
		switch mode {
		case SimOnly:
			return !isWall(name)
		case WallOnly:
			return isWall(name)
		default:
			return true
		}
	}
	for k, v := range m.counters {
		if !keep(k) {
			continue
		}
		if s.Counters == nil {
			s.Counters = make(map[string]int64)
		}
		s.Counters[k] = v
	}
	for k, v := range m.gauges {
		if !keep(k) {
			continue
		}
		if s.Gauges == nil {
			s.Gauges = make(map[string]float64)
		}
		s.Gauges[k] = v
	}
	for k, h := range m.hists {
		if !keep(k) {
			continue
		}
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistSnapshot)
		}
		mean := 0.0
		if h.n > 0 {
			mean = h.sum / float64(h.n)
		}
		s.Histograms[k] = HistSnapshot{
			Count: h.n, Mean: mean, Min: h.minV, Max: h.maxV,
			P50: h.quantile(0.50), P90: h.quantile(0.90), P99: h.quantile(0.99),
		}
	}
	return s
}

// isWall reports whether a metric name is wall-clock self-profiling.
func isWall(name string) bool { return len(name) >= 5 && name[:5] == "wall." }

// Summary renders the snapshot's histograms one per line, sorted —
// the human-readable self-profiling block scenario summaries append.
func (s Snap) Summary() string {
	if len(s.Histograms) == 0 {
		return ""
	}
	names := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	out := ""
	for _, k := range names {
		h := s.Histograms[k]
		out += fmt.Sprintf("  %-28s n=%-6d mean=%-10.1f p50=%-10.0f p99=%-10.0f max=%.1f\n",
			k, h.Count, h.Mean, h.P50, h.P99, h.Max)
	}
	return out
}
