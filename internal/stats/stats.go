// Package stats provides the small statistical toolbox the reliability
// analyses need: Poisson confidence intervals for observed error counts
// (the standard treatment for beam-test data, cf. JEDEC JESD89A),
// binomial intervals for campaign early stopping, stratified estimators
// and their sample allocators, and sample quantiles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// PoissonCI returns an approximate central confidence interval for the
// rate parameter of a Poisson process from which k events were observed,
// at the given confidence level (e.g. 0.95). It uses the chi-square /
// Wilson–Hilferty relationship:
//
//	lower = (z-sqrt approximation of) chi2(alpha/2, 2k)/2
//	upper = chi2(1-alpha/2, 2k+2)/2
//
// with the exact special case lower = 0 when k == 0.
func PoissonCI(k int64, confidence float64) (lower, upper float64) {
	if k < 0 {
		panic("stats: negative event count")
	}
	if confidence <= 0 || confidence >= 1 {
		panic(fmt.Sprintf("stats: confidence %v out of (0,1)", confidence))
	}
	alpha := 1 - confidence
	if k == 0 {
		return 0, chi2Quantile(1-alpha/2, 2) / 2
	}
	return chi2Quantile(alpha/2, 2*float64(k)) / 2,
		chi2Quantile(1-alpha/2, 2*float64(k)+2) / 2
}

// chi2Quantile returns the p-quantile of a chi-square distribution with
// df degrees of freedom, via the Wilson–Hilferty normal approximation,
// which is accurate to a few percent for df >= 2 — ample for error bars.
func chi2Quantile(p, df float64) float64 {
	z := normQuantile(p)
	a := 2.0 / (9 * df)
	v := 1 - a + z*math.Sqrt(a)
	return df * v * v * v
}

// normQuantile returns the p-quantile of the standard normal
// distribution using the Beasley–Springer–Moro rational approximation.
func normQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: normal quantile of %v", p))
	}
	a := [4]float64{2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637}
	b := [4]float64{-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833}
	c := [9]float64{
		0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
		0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
		0.0000321767881768, 0.0000002888167364, 0.0000003960315187,
	}
	y := p - 0.5
	if math.Abs(y) < 0.42 {
		r := y * y
		num := y * (((a[3]*r+a[2])*r+a[1])*r + a[0])
		den := (((b[3]*r+b[2])*r+b[1])*r+b[0])*r + 1
		return num / den
	}
	r := p
	if y > 0 {
		r = 1 - p
	}
	r = math.Log(-math.Log(r))
	x := c[0]
	pw := 1.0
	for i := 1; i < 9; i++ {
		pw *= r
		x += c[i] * pw
	}
	if y < 0 {
		return -x
	}
	return x
}

// Quantile returns the q-quantile (0 <= q <= 1) of a sample, using
// linear interpolation between order statistics. It sorts a copy.
func Quantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i == len(s)-1 {
		return s[i]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

// ClampNonFinite returns a copy of xs with NaN and infinities replaced
// by +-math.MaxFloat64, so the slice can be encoded as JSON (which has
// no non-finite numbers). NaN maps to +MaxFloat64, matching its
// treatment as an unbounded relative error.
func ClampNonFinite(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		switch {
		case math.IsNaN(x) || math.IsInf(x, 1):
			out[i] = math.MaxFloat64
		case math.IsInf(x, -1):
			out[i] = -math.MaxFloat64
		default:
			out[i] = x
		}
	}
	return out
}
