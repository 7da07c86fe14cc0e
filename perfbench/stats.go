package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// median is the exact median of xs: the middle sample, or the mean of
// the middle two for an even count. It is 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailMinBeyond = 10

// tail returns the highest whole percentile of xs that still has at
// least ten samples beyond it, and the nearest-rank sample at that
// percentile. ok is false with fewer than eleven samples.
func tail(xs []float64) (pct int, v float64, ok bool) {
	n := len(xs)
	if n <= tailMinBeyond {
		return 0, 0, false
	}
	pct = 100 * (n - tailMinBeyond) / n
	rank := (pct*n + 99) / 100 // nearest rank: ceil(pct/100 · n), 1-based
	return pct, sortedCopy(xs)[rank-1], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summary prints a sample set as its median, mean and tail, with the
// count.
func summary(w io.Writer, name, unit string, xs []float64) {
	fmt.Fprintf(w, "%-28s median %.6g %s, mean %.6g %s", name, median(xs), unit, mean(xs), unit)
	if pct, v, ok := tail(xs); ok {
		fmt.Fprintf(w, ", p%d %.6g %s (n=%d)\n", pct, v, unit, len(xs))
		return
	}
	fmt.Fprintf(w, " (n=%d; a tail needs n >= %d): %.4g\n", len(xs), tailMinBeyond+1, xs)
}

// span is one wall-clock interval the benchmark recorded around a call
// into a layer. Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0), End: -1})
	return len(t.spans) - 1
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.t0)
	return s.End - s.Start
}

// call runs f and returns its duration, recording it as a span under
// parent when t is non-nil.
func (t *tracer) call(name string, parent int, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id := t.begin(name, parent)
	f()
	return t.end(id)
}

// self is a span's duration minus the part its children cover.
func (t *tracer) self(id int) time.Duration {
	var kids []span
	for _, s := range t.spans {
		if s.Parent == id {
			kids = append(kids, s)
		}
	}
	return selfTime(t.spans[id], kids)
}

// durations lists the closed durations of every span with this name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTime is parent's duration minus the union of its children's
// intervals clipped to it. Children may overlap one another, as calls
// fanned out to a worker pool do; covered time counts once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	for i := 0; i < len(ivs); {
		lo, hi := ivs[i].lo, ivs[i].hi
		for i++; i < len(ivs) && ivs[i].lo <= hi; i++ {
			hi = max(hi, ivs[i].hi)
		}
		covered += hi - lo
	}
	return parent.End - parent.Start - covered
}

// writeSpans saves the spans as JSON under the build directory of the
// checkout the benchmark runs in.
func (t *tracer) writeSpans(workload string) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// digest fingerprints a workload's output so two commits can be
// compared on any seed.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// firstDiff describes where got first departs from want, for an output
// check's failure message; "" means the two are equal.
func firstDiff(got, want []byte) string {
	line := 1
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("byte %d (line %d) differs", i, line)
		}
		if got[i] == '\n' {
			line++
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	return ""
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
