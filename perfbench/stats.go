package main

import (
	"math"
	"sort"
)

// failed is the latency a failed or refused operation counts as: it
// missed every latency limit, so it sorts above every completed one.
var failed = math.Inf(1)

// dist is a sample of values, where a failed operation is +Inf.
type dist []float64

// quantile returns the nearest-rank p-quantile (0 < p ≤ 1) of d: the
// smallest value with at least a share p of the samples at or below it.
// An empty sample has no quantile and returns NaN; a quantile that lands
// on a failure returns +Inf.
func (d dist) quantile(p float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := append(dist(nil), d...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// mean returns the arithmetic mean of the finite values (NaN if none).
func (d dist) mean() float64 {
	sum, n := 0.0, 0
	for _, v := range d {
		if !math.IsInf(v, 0) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// median is the 0.5 quantile.
func (d dist) median() float64 { return d.quantile(0.5) }

// failures counts the +Inf entries.
func (d dist) failures() int {
	n := 0
	for _, v := range d {
		if math.IsInf(v, 1) {
			n++
		}
	}
	return n
}
