package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is Python's statistics.median: the middle value, or the mean
// of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, so spreads computed here match the ones a
// Python reader computes from the same runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the quartile distance as a share of the median: the
// run-to-run noise measure every bound in BENCHMARK.json is held to.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// tailPercentile returns the highest percentile of the ladder
// 50, 90, 99, 99.9, ... that has at least ten of n samples beyond it,
// and false when n < 20 leaves not even the median with ten beyond.
func tailPercentile(n int) (float64, bool) {
	if n < 20 {
		return 0, false
	}
	p := 50.0
	for beyond := 100; n >= beyond; beyond *= 10 {
		p = 100 - 1000/float64(beyond)
	}
	return p, true
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tail is the value at tailPercentile(len(xs)), with the percentile
// used; it falls back to the maximum when xs is too short for the rule.
func tail(xs []float64) (value, pct float64) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		return percentile(xs, 100), 100
	}
	return percentile(xs, p), p
}

// pairWins counts, over runs paired by index, how often the change
// reads better than the parent, how often worse, and the ties (which
// count for neither side).
func pairWins(parent, change []float64, lowerBetter bool) (wins, losses, ties int) {
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	for i := 0; i < n; i++ {
		a, b := parent[i], change[i]
		switch {
		case a == b:
			ties++
		case (b < a) == lowerBetter:
			wins++
		default:
			losses++
		}
	}
	return wins, losses, ties
}

// Verdicts of one workload x metric comparison.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict applies the gain and no-regression rules to one metric:
// a gain needs the change to win at least nine tenths of all pairs and
// the medians to differ by more than the parent's quartile distance;
// otherwise the change may be no worse than the parent's median by
// more than bound (a share of that median). When the parent's own
// spread exceeds the bound nothing can be concluded, unless every
// change run reads better than every parent run.
func verdict(parent, change []float64, lowerBetter bool, bound float64) string {
	pm, cm := median(parent), median(change)
	better := func(b, a float64) bool { return (b < a) == lowerBetter && b != a }
	wins, _, _ := pairWins(parent, change, lowerBetter)
	pairs := len(parent)
	if len(change) < pairs {
		pairs = len(change)
	}
	q1, _, q3 := quartiles(parent)
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && better(cm, pm) && math.Abs(cm-pm) > q3-q1 {
		return verdictImproved
	}
	if spread(parent) > bound {
		if allBetter(parent, change, better) {
			return verdictNoWorse
		}
		return verdictUnresolved
	}
	worseBy := (cm - pm) / math.Abs(pm)
	if !lowerBetter {
		worseBy = -worseBy
	}
	if worseBy > bound {
		return verdictWorse
	}
	return verdictNoWorse
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(parent, change []float64, better func(b, a float64) bool) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	for _, b := range change {
		for _, a := range parent {
			if !better(b, a) {
				return false
			}
		}
	}
	return true
}
