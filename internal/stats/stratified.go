package stats

import (
	"fmt"
	"math"
)

// This file is the estimator side of the variance-reduction sampling
// engine (DESIGN.md "Sampling engine"). A campaign partitions its fault
// space into strata with known population weights, samples each stratum
// independently, and recombines with the post-stratified estimator
//
//	p̂ = Σ_h W_h · k_h/n_h,   Var(p̂) = Σ_h W_h² · p_h(1-p_h)/n_h.
//
// The whole point is that Var(p̂) drops the between-strata variance a
// uniform sample pays for: strata that are almost always masked (low
// mantissa bits) or almost always corrupting (exponent bits) contribute
// nearly nothing, so the same confidence needs far fewer samples.
//
// Two deterministic allocators drive the sampling loop: proportional
// (n_h ∝ W_h, the design-unbiased default) and Neyman (n_h ∝ W_h·s_h,
// which minimizes Var(p̂) for a fixed total). Allocation scores use an
// Jeffreys-smoothed proportion so an all-masked stratum
// keeps drawing a shrinking-but-nonzero share of the budget instead of
// being written off after its first empty samples. The variance
// estimate itself uses the plain p̂_h(1-p̂_h): summing a smoothing
// floor over hundreds of near-deterministic strata would swamp the
// very between-strata variance the design removes, making the
// stratified CI *wider* than the uniform one it replaces. Honesty at
// the edges comes instead from the unsampled-stratum +Inf guard and
// from the sampling loop's per-stratum floor.

// StratumCount is one stratum's running tally: its population weight
// (the share of the uniform fault space it covers; weights sum to 1
// over a design) and the samples observed so far.
type StratumCount struct {
	Weight float64
	// N is the number of classified samples, K the successes (SDCs or
	// DUEs, depending on which probability is being estimated).
	N, K int64
}

// smoothed returns the Jeffreys-smoothed proportion (K+½)/(N+1) — the
// posterior mean under the Jeffreys Beta(½,½) prior. It keeps p̃(1-p̃)
// strictly positive so empty-looking strata are never written off by
// the allocator, while decaying fast enough (σ̃ ~ sqrt(0.5/N)) that
// near-deterministic strata stop soaking budget the optimum would
// spend on genuinely mixed ones.
func (s StratumCount) smoothed() float64 {
	return (float64(s.K) + 0.5) / (float64(s.N) + 1)
}

// SmoothedSigma returns the smoothed per-sample standard deviation
// sqrt(p̃(1-p̃)) used by Neyman allocation scores.
func (s StratumCount) SmoothedSigma() float64 {
	p := s.smoothed()
	return math.Sqrt(p * (1 - p))
}

// PostStratified returns the stratified estimate Σ W_h·p̂_h. Strata
// with no observations are excluded and the remaining weights
// renormalized (standard collapsed post-stratification); an entirely
// empty design returns 0.
func PostStratified(strata []StratumCount) float64 {
	var wSum, p float64
	for _, s := range strata {
		if s.N > 0 {
			wSum += s.Weight
			p += s.Weight * float64(s.K) / float64(s.N)
		}
	}
	if wSum == 0 {
		return 0
	}
	return p / wSum
}

// StratifiedVariance returns the estimated variance of the
// post-stratified estimator, Σ W_h²·p̂_h(1-p̂_h)/n_h. Any
// positive-weight stratum that has not been sampled yet makes the
// variance +Inf: the estimator is not yet defined over the whole
// space, so early stopping must not trigger.
func StratifiedVariance(strata []StratumCount) float64 {
	var v float64
	for _, s := range strata {
		if s.Weight == 0 {
			continue
		}
		if s.N == 0 {
			return math.Inf(1)
		}
		p := float64(s.K) / float64(s.N)
		v += s.Weight * s.Weight * p * (1 - p) / float64(s.N)
	}
	return v
}

// StratifiedCI returns the normal-approximation confidence interval
// p̂ ± z·sqrt(Var(p̂)) on the post-stratified estimate, clamped to
// [0, 1]. An unsampled stratum yields the vacuous interval [0, 1].
func StratifiedCI(strata []StratumCount, confidence float64) (lower, upper float64) {
	p := PostStratified(strata)
	v := StratifiedVariance(strata)
	if math.IsInf(v, 1) {
		return 0, 1
	}
	half := zFor(confidence) * math.Sqrt(v)
	lower = p - half
	upper = p + half
	if lower < 0 {
		lower = 0
	}
	if upper > 1 {
		upper = 1
	}
	return lower, upper
}

// StratifiedHalfWidth returns half the width of StratifiedCI — the
// stopping criterion of adaptive campaigns.
func StratifiedHalfWidth(strata []StratumCount, confidence float64) float64 {
	lo, hi := StratifiedCI(strata, confidence)
	return (hi - lo) / 2
}

// Alloc apportions budget samples across strata with target shares
// proportional to weights[h]·scores[h], by largest-remainder rounding
// (deterministic: ties break on the lower index). Every stratum with a
// positive weight first receives floor samples (so no stratum is
// starved before it has been observed at all); the remainder follows
// the scores. When every score is zero the allocation falls back to
// weights alone. If the budget cannot cover the floors, the whole
// budget is distributed by weight with no floor.
//
// The returned slice always sums to exactly budget (0 for a
// non-positive budget).
func Alloc(weights, scores []float64, budget, floor int) []int {
	if len(weights) != len(scores) {
		panic(fmt.Sprintf("stats: %d weights vs %d scores", len(weights), len(scores)))
	}
	n := len(weights)
	out := make([]int, n)
	if budget <= 0 || n == 0 {
		return out
	}
	eligible := 0
	for _, w := range weights {
		if w > 0 {
			eligible++
		}
	}
	if eligible == 0 {
		return out
	}
	if floor < 0 {
		floor = 0
	}
	if floor*eligible > budget {
		floor = 0
	}
	remaining := budget
	for h, w := range weights {
		if w > 0 {
			out[h] = floor
			remaining -= floor
		}
	}
	shares := make([]float64, n)
	var total float64
	for h, w := range weights {
		if w > 0 {
			shares[h] = w * scores[h]
			total += shares[h]
		}
	}
	if total == 0 {
		for h, w := range weights {
			if w > 0 {
				shares[h] = w
				total += w
			}
		}
	}
	// Largest-remainder apportionment of the post-floor remainder.
	base := 0
	fracs := make([]float64, n)
	for h := range shares {
		if shares[h] <= 0 {
			continue
		}
		q := shares[h] / total * float64(remaining)
		whole := math.Floor(q)
		out[h] += int(whole)
		base += int(whole)
		fracs[h] = q - whole
	}
	for left := remaining - base; left > 0; left-- {
		best := -1
		for h := range fracs {
			if shares[h] <= 0 {
				continue
			}
			if best < 0 || fracs[h] > fracs[best] {
				best = h
			}
		}
		if best < 0 {
			break
		}
		out[best]++
		fracs[best] = -1
	}
	return out
}

// DeficitAlloc apportions a round's budget toward the cumulative
// Neyman target: with counts[h] samples already taken, the target
// allocation over (Σcounts + budget) total samples has shares
// proportional to weights[h]·scores[h], and the round's budget is
// distributed over each stratum's shortfall against that target
// (largest-remainder, deterministic ties). Strata already at or past
// their target receive nothing, so early over-allocation — e.g. the
// covering first round — self-corrects instead of compounding. When no
// stratum is short (or every score is zero), the budget falls back to
// Alloc on the same scores.
//
// The returned slice sums to exactly budget (0 for a non-positive
// budget).
func DeficitAlloc(weights, scores []float64, counts []int64, budget int) []int {
	if len(weights) != len(scores) || len(weights) != len(counts) {
		panic(fmt.Sprintf("stats: %d weights vs %d scores vs %d counts",
			len(weights), len(scores), len(counts)))
	}
	n := len(weights)
	out := make([]int, n)
	if budget <= 0 || n == 0 {
		return out
	}
	var spent int64
	var total float64
	for h, w := range weights {
		spent += counts[h]
		if w > 0 {
			total += w * scores[h]
		}
	}
	if total == 0 {
		return Alloc(weights, scores, budget, 0)
	}
	grand := float64(spent) + float64(budget)
	deficits := make([]float64, n)
	var defTotal float64
	for h, w := range weights {
		if w <= 0 {
			continue
		}
		if d := w*scores[h]/total*grand - float64(counts[h]); d > 0 {
			deficits[h] = d
			defTotal += d
		}
	}
	if defTotal == 0 {
		return Alloc(weights, scores, budget, 0)
	}
	// Largest-remainder apportionment of the budget over the deficits.
	base := 0
	fracs := make([]float64, n)
	for h, d := range deficits {
		if d <= 0 {
			fracs[h] = -1
			continue
		}
		q := d / defTotal * float64(budget)
		whole := math.Floor(q)
		out[h] += int(whole)
		base += int(whole)
		fracs[h] = q - whole
	}
	for left := budget - base; left > 0; left-- {
		best := -1
		for h, f := range fracs {
			if f < 0 {
				continue
			}
			if best < 0 || f > fracs[best] {
				best = h
			}
		}
		if best < 0 {
			break
		}
		out[best]++
		fracs[best] = -1
	}
	return out
}

// ProportionalAlloc is Alloc with unit scores: n_h ∝ W_h.
func ProportionalAlloc(weights []float64, budget, floor int) []int {
	scores := make([]float64, len(weights))
	for i := range scores {
		scores[i] = 1
	}
	return Alloc(weights, scores, budget, floor)
}
