package main

import (
	"math"
	"sort"
	"time"
)

// dist is a sample of one measured quantity. Timings are reported as the
// median with quartiles and the sample count; a tail is reported only at a
// percentile the sample supports (see supportedTail).
type dist struct {
	sorted []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int { return len(d.sorted) }

// at returns the p-th percentile (0 < p ≤ 100) by the ceil-rank rule the
// load generator uses: the smallest sample with at least p% of the sample at
// or below it. An empty sample reads 0.
func (d dist) at(p float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d.sorted[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func (d dist) median() float64 {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d.sorted[n/2]
	}
	return (d.sorted[n/2-1] + d.sorted[n/2]) / 2
}

// quartiles returns the first and third quartile by linear interpolation
// between closest ranks (the "inclusive" method): exact on the sample's own
// points, defined from two samples up.
func (d dist) quartiles() (q1, q3 float64) {
	return d.interp(0.25), d.interp(0.75)
}

func (d dist) interp(q float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return d.sorted[lo]*(1-frac) + d.sorted[hi]*frac
}

// tailPercentiles are the tails the benchmark may report, lowest first.
var tailPercentiles = []float64{90, 95, 99}

// tailNeedsBeyond is how many samples must lie beyond a percentile before
// the benchmark reports it: fewer and the figure is one or two outliers.
const tailNeedsBeyond = 10

// supportedTail returns the highest tail percentile with at least
// tailNeedsBeyond samples beyond it in a sample of n, or 0 when not even the
// lowest tail is supported (the median is then all the sample can carry).
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= tailNeedsBeyond {
			best = p
		}
	}
	return best
}

// summary is the printed form of a dist.
type summary struct {
	N      int     `json:"n"`
	P25    float64 `json:"p25"`
	P50    float64 `json:"p50"`
	P75    float64 `json:"p75"`
	TailP  float64 `json:"tail_percentile,omitempty"`
	TailAt float64 `json:"tail_value,omitempty"`
}

func (d dist) summary() summary {
	q1, q3 := d.quartiles()
	s := summary{N: d.n(), P25: q1, P50: d.median(), P75: q3}
	if p := supportedTail(d.n()); p > 0 {
		s.TailP, s.TailAt = p, d.at(p)
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
