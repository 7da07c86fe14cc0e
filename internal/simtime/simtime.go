// Package simtime provides the simulated-time primitives shared by the
// Varuna testbed, the parametric simulator, the spot-VM market and the
// manager. All simulated timing in this repository is expressed as
// integer microseconds so that event ordering is exact and every
// experiment is bit-reproducible.
package simtime

import (
	"fmt"
	"math/rand"
)

// Time is an absolute instant on the simulated clock, in microseconds
// since the start of the simulation.
type Time int64

// Duration is a span of simulated time in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the instant as fractional seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Hours reports the instant as fractional hours since simulation start.
func (t Time) Hours() float64 { return float64(t) / float64(Hour) }

// String formats the instant as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Seconds reports the duration as fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration as fractional milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// String formats the duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Hour:
		return fmt.Sprintf("%.2fh", float64(d)/float64(Hour))
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// FromSeconds converts fractional seconds to a Duration, rounding to
// the nearest microsecond.
func FromSeconds(s float64) Duration { return Duration(s*float64(Second) + 0.5) }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Rand is a deterministic random source used for jitter and the spot
// market. It wraps math/rand with a fixed seed discipline so that two
// components never share a stream accidentally.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Intn returns a uniform value in [0, n).
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// NormFloat64 returns a standard normal sample.
func (r *Rand) NormFloat64() float64 { return r.r.NormFloat64() }

// ExpFloat64 returns an exponentially distributed sample with mean 1.
func (r *Rand) ExpFloat64() float64 { return r.r.ExpFloat64() }

// Jitter returns d scaled by a non-negative multiplicative factor drawn
// from a truncated normal with the given coefficient of variation. A cv
// of 0 returns d unchanged. The result is never below d/2 so pathologic
// draws cannot make work complete unrealistically fast.
func (r *Rand) Jitter(d Duration, cv float64) Duration {
	if cv <= 0 || d <= 0 {
		return d
	}
	f := 1 + cv*r.NormFloat64()
	if f < 0.5 {
		f = 0.5
	}
	return Duration(float64(d)*f + 0.5)
}

// Exp returns an exponentially distributed duration with the given mean.
func (r *Rand) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	return Duration(float64(mean)*r.ExpFloat64() + 0.5)
}
