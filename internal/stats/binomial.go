package stats

import (
	"fmt"
	"math"
)

// This file holds the binomial interval estimators behind campaign
// early stopping: a fault-injection campaign observes k "successes"
// (SDCs, or DUEs) among n classified executions and needs a confidence
// interval on the underlying probability that stays honest at the
// edges (k == 0 and k == n occur constantly in well-separated strata).
// The Wilson score interval is the standard choice there — unlike the
// Wald interval it never collapses to zero width at the edges.

// zFor returns the two-sided critical value for a confidence level,
// e.g. 1.96 for 0.95.
func zFor(confidence float64) float64 {
	if confidence <= 0 || confidence >= 1 {
		panic(fmt.Sprintf("stats: confidence %v out of (0,1)", confidence))
	}
	return normQuantile(1 - (1-confidence)/2)
}

// WilsonCI returns the Wilson score interval for a binomial proportion
// after observing k successes in n trials, at the given confidence
// level. n == 0 returns the vacuous interval [0, 1]. The exact edge
// cases are preserved: k == 0 gives a zero lower bound and k == n a
// unit upper bound.
func WilsonCI(k, n int64, confidence float64) (lower, upper float64) {
	if k < 0 || n < 0 || k > n {
		panic(fmt.Sprintf("stats: Wilson interval of %d/%d", k, n))
	}
	z := zFor(confidence)
	if n == 0 {
		return 0, 1
	}
	lower, upper = wilsonBounds(float64(k)/float64(n), float64(n), z)
	if k == 0 {
		lower = 0
	}
	if k == n {
		upper = 1
	}
	return lower, upper
}

// wilsonBounds computes the Wilson interval for proportion p over n
// trials with critical value z, allowing fractional inputs (used by
// the sample-size inversion below).
func wilsonBounds(p, n, z float64) (lower, upper float64) {
	z2 := z * z
	center := (p + z2/(2*n)) / (1 + z2/n)
	half := z / (1 + z2/n) * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lower = center - half
	upper = center + half
	if lower < 0 {
		lower = 0
	}
	if upper > 1 {
		upper = 1
	}
	return lower, upper
}

// WilsonHalfWidth returns half the width of the Wilson interval — the
// quantity campaign early stopping compares against its target.
func WilsonHalfWidth(k, n int64, confidence float64) float64 {
	lo, hi := WilsonCI(k, n, confidence)
	return (hi - lo) / 2
}

// WilsonSamplesFor returns the smallest number of uniform samples for
// which the Wilson interval around proportion p has at most the given
// half-width — the cost a uniform campaign pays for the confidence a
// stratified one reaches with fewer samples. It panics for a
// non-positive half-width or p outside [0, 1].
func WilsonSamplesFor(p, halfWidth, confidence float64) int64 {
	if halfWidth <= 0 {
		panic(fmt.Sprintf("stats: non-positive half-width %v", halfWidth))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: proportion %v out of [0,1]", p))
	}
	z := zFor(confidence)
	width := func(n float64) float64 {
		lo, hi := wilsonBounds(p, n, z)
		return (hi - lo) / 2
	}
	// The fractional-p Wilson half-width is monotone decreasing in n,
	// so binary search the threshold.
	var lo, hi int64 = 1, 1
	for width(float64(hi)) > halfWidth {
		hi *= 2
		if hi >= 1<<40 {
			break
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if width(float64(mid)) <= halfWidth {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
