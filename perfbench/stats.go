package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; it does not modify xs. An empty sample is 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects per-request timings of one request class.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, ms(d)) }

// summary is the class's median, 90th and 99th percentiles with the
// sample count they rest on.
func (l *latencies) summary() map[string]float64 {
	return map[string]float64{"p50_ms": median(l.ms), "p90_ms": quantile(l.ms, 0.9), "p99_ms": quantile(l.ms, 0.99), "n": float64(len(l.ms))}
}
