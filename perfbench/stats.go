package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only if at
// least this many samples lie beyond it.
const minBeyond = 10

// samples collects latencies in milliseconds. A failed or refused
// operation is recorded as +Inf, so it counts against every percentile
// instead of being dropped.
type samples struct {
	ms []float64
}

func (s *samples) add(ms float64) { s.ms = append(s.ms, ms) }
func (s *samples) fail()          { s.ms = append(s.ms, math.Inf(1)) }
func (s *samples) n() int         { return len(s.ms) }

// percentile returns the q-quantile (0 < q < 1), interpolated linearly
// between the two nearest ranks, and whether at least minBeyond samples
// lie above the nearest rank ceil(q·n).
func (s *samples) percentile(q float64) (float64, bool) {
	n := len(s.ms)
	if n == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), s.ms...)
	sort.Float64s(sorted)
	h := q * float64(n-1)
	lo := int(h)
	v := sorted[lo]
	if frac := h - float64(lo); frac > 0 {
		if next := sorted[lo+1]; math.IsInf(next, 1) {
			v = next
		} else {
			v += frac * (next - v)
		}
	}
	return v, n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// minSamplesFor is the smallest sample count at which percentile q
// satisfies the rule.
func minSamplesFor(q float64) int {
	n := 1
	for n-int(math.Ceil(q*float64(n))) < minBeyond {
		n++
	}
	return n
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
