package inject

import (
	"fmt"
	"math"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/rng"
	"mixedrel/internal/stats"
	"mixedrel/internal/telemetry"
)

// This file is the variance-reduction sampling engine: stratified and
// adaptive (Neyman) allocation of a campaign's fault budget over the
// Space partition of strata.go, with sequential early stopping on the
// stratified confidence interval. See DESIGN.md "Sampling engine".
//
// Determinism contract: sample j of stratum h always draws its private
// random stream from the (seed, stratum, index) address
// rng.New(j-th draw of rng.New(exec.StratumSeed(seed, h))) — never
// from worker scheduling, from which samples already ran, or from how
// the adaptive allocator reached index j. Because every allocation and
// stopping decision is a pure function of completed-round tallies, and
// every tally is a pure function of sample addresses, a stratified
// campaign is byte-identical at any worker count and across arbitrary
// checkpoint interruptions.

// Sampling configures the variance-reduction sampling engine on a
// Campaign. A nil Sampling keeps the historical uniform design; a
// non-nil one partitions the fault space into strata over
// (op-class x bit-position band x kernel phase), allocates the fault
// budget across them in rounds, and reports post-stratified estimates
// with confidence intervals alongside the pooled numbers.
type Sampling struct {
	// Phases is the number of kernel-phase segments per stratification
	// axis (default 3: early/mid/late).
	Phases int
	// Bands partitions bit positions; it must tile [0, format width)
	// exactly. Empty defaults to DefaultBitBands (low/high mantissa,
	// exponent, sign).
	Bands []BitBand
	// Confidence is the level of every interval and of the stopping
	// rule (default 0.95).
	Confidence float64
	// CIHalfWidth, when positive, enables sequential early stopping:
	// the campaign halts once the stratified interval on P(SDC) — and
	// on P(DUE), when any DUE detector is armed — is at most this
	// half-width. Campaign.Faults remains the hard budget.
	CIHalfWidth float64
	// Adaptive enables Neyman reallocation: after the first round,
	// each round's budget is split proportionally to
	// weight x smoothed per-stratum standard deviation, concentrating
	// samples where the outcome is still uncertain. Strata whose own
	// Wilson interval is already tighter than CIHalfWidth are halted
	// (allocation score zero). Off, every round allocates
	// proportionally to the weights.
	Adaptive bool
	// Round is the sample budget per allocation round (default 256).
	Round int
	// MinPerStratum is the first round's per-stratum floor, so every
	// stratum is observed before any adaptive decision (default 8).
	MinPerStratum int
}

// withDefaults fills the zero values in.
func (s Sampling) withDefaults(f fp.Format) Sampling {
	if s.Phases == 0 {
		s.Phases = 3
	}
	if len(s.Bands) == 0 {
		s.Bands = DefaultBitBands(f)
	}
	if s.Confidence == 0 {
		s.Confidence = 0.95
	}
	if s.Round == 0 {
		s.Round = 256
	}
	if s.MinPerStratum == 0 {
		s.MinPerStratum = 8
	}
	return s
}

// validate rejects configurations that could only mislead: they are
// errors before the campaign starts, not mid-run surprises.
func (s Sampling) validate() error {
	if s.Phases < 0 {
		return fmt.Errorf("inject: sampling with %d phases", s.Phases)
	}
	if s.CIHalfWidth < 0 || s.CIHalfWidth >= 0.5 {
		return fmt.Errorf("inject: CI half-width target %g out of [0, 0.5)", s.CIHalfWidth)
	}
	if s.Confidence < 0 || s.Confidence >= 1 {
		return fmt.Errorf("inject: confidence %g out of (0, 1)", s.Confidence)
	}
	if s.Round < 0 || s.MinPerStratum < 0 {
		return fmt.Errorf("inject: negative round size or per-stratum floor")
	}
	return nil
}

// StratumResult is one stratum's share of a stratified campaign.
type StratumResult struct {
	// Desc labels the stratum ("operand/FMA/ph1/exp").
	Desc string
	// Weight is the stratum's share of the uniform fault-space mass.
	Weight float64
	// Faults counts the samples spent here; SDCs/DUEs/Masked classify
	// them (any shortfall is aborted samples).
	Faults, SDCs, DUEs, Masked int
}

// stratumState accumulates one stratum's outcomes. Sample j's private
// stream seed is the j-th output of seedSrc; seeds[j] keeps it so
// replay diagnostics can name any sample's seed. Every round runs all
// the samples it plans or ends the campaign, so the two slices are the
// same length between rounds.
type stratumState struct {
	outs    []sample
	seedSrc *rng.Rand
	seeds   []uint64
}

// runStratified executes the campaign under the sampling engine. The
// runner, resolved sites and watchdog come from runOn, which validated
// the basic campaign fields already. Each allocation round is one batch
// on the campaign's driver session, which spans all rounds.
func (c Campaign) runStratified(runner *Runner, sites []Site, watchdog float64) (*Result, error) {
	sp := c.Sampling.withDefaults(c.Format)
	if err := sp.validate(); err != nil {
		return nil, err
	}
	space, err := BuildSpace(sites, runner.Counts(), runner.ArrayLens(), c.Format, sp.Phases, sp.Bands)
	if err != nil {
		return nil, err
	}
	weights := space.Weights()
	nStrata := len(space.Strata)

	sts := make([]stratumState, nStrata)
	for h := range sts {
		sts[h].seedSrc = rng.New(exec.StratumSeed(c.Seed, h))
	}

	sess, err := exec.NewSession[FaultSpec](c.Context, c.Workers, c.Checkpoint, encodeSample, decodeSample)
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	// Control sites always arm the watchdog (runOn), so this covers them.
	dueArmed := watchdog > 0 || c.TrapNonFinite

	// tallies rebuilds the per-stratum counts for one outcome class;
	// the denominators exclude aborted samples, like the pooled PVF.
	tallies := func(due bool) []stats.StratumCount {
		out := make([]stats.StratumCount, nStrata)
		for h := range sts {
			sc := stats.StratumCount{Weight: weights[h]}
			for _, s := range sts[h].outs {
				if s.aborted {
					continue
				}
				sc.N++
				if (due && s.rr.Outcome.IsDUE()) || (!due && s.rr.Outcome == SDC) {
					sc.K++
				}
			}
			out[h] = sc
		}
		return out
	}
	// taken snapshots how many samples each stratum has consumed (the
	// deficit allocator's view of the cumulative allocation so far).
	taken := func() []int64 {
		out := make([]int64, nStrata)
		for h := range sts {
			out[h] = int64(len(sts[h].outs))
		}
		return out
	}
	unitScores := make([]float64, nStrata)
	for h := range unitScores {
		unitScores[h] = 1
	}
	converged := func() bool {
		if sp.CIHalfWidth <= 0 {
			return false
		}
		if stats.StratifiedHalfWidth(tallies(false), sp.Confidence) > sp.CIHalfWidth {
			return false
		}
		return !dueArmed || stats.StratifiedHalfWidth(tallies(true), sp.Confidence) <= sp.CIHalfWidth
	}

	spent, stopped, round := 0, false, 0
	for spent < c.Faults && !stopped {
		round++
		roundBudget := sp.Round
		if spent == 0 {
			// The first round must observe every stratum: until it does,
			// the stratified variance is +Inf (StratifiedVariance's
			// unsampled-stratum guard) and early stopping cannot fire.
			if cover := sp.MinPerStratum * nStrata; cover > roundBudget {
				roundBudget = cover
			}
		}
		if rest := c.Faults - spent; roundBudget > rest {
			roundBudget = rest
		}
		var alloc []int
		switch {
		case spent == 0:
			alloc = stats.ProportionalAlloc(weights, roundBudget, sp.MinPerStratum)
		case sp.Adaptive:
			sdc, due := tallies(false), tallies(true)
			scores := make([]float64, nStrata)
			for h := range scores {
				if sp.CIHalfWidth > 0 &&
					stats.WilsonHalfWidth(sdc[h].K, sdc[h].N, sp.Confidence) <= sp.CIHalfWidth &&
					(!dueArmed || stats.WilsonHalfWidth(due[h].K, due[h].N, sp.Confidence) <= sp.CIHalfWidth) {
					continue // stratum halted: its own interval is tight enough
				}
				scores[h] = sdc[h].SmoothedSigma()
				if dueArmed {
					if d := due[h].SmoothedSigma(); d > scores[h] {
						scores[h] = d
					}
				}
			}
			alloc = stats.DeficitAlloc(weights, scores, taken(), roundBudget)
		default:
			alloc = stats.DeficitAlloc(weights, unitScores, taken(), roundBudget)
		}

		keys := make([]int, 0, roundBudget)
		seeds := make([]uint64, 0, roundBudget)
		for h, n := range alloc {
			st := &sts[h]
			for k := 0; k < n; k++ {
				st.seeds = append(st.seeds, st.seedSrc.Uint64())
				keys = append(keys, exec.SampleKey(h, len(st.outs)+k))
			}
			seeds = append(seeds, st.seeds[len(st.outs):]...)
		}
		if len(keys) == 0 {
			break
		}
		results, _, err := sess.Run(exec.Keyed(keys, seeds), func(key int, r *rng.Rand) FaultSpec {
			return space.Sample(exec.KeyStratum(key), r)
		}, func(_ int, spec FaultSpec) sample {
			return c.runSample(runner, spec, watchdog)
		})
		if err != nil {
			return nil, err
		}
		// Merge in batch order — grouped by stratum, ascending index —
		// so the aggregate never depends on scheduling.
		for i, key := range keys {
			h := exec.KeyStratum(key)
			sts[h].outs = append(sts[h].outs, results[i])
		}
		spent += len(keys)
		stopped = converged()
		// The round event and progress line trail the merge, so their
		// content (allocation, CI trajectory, stopping decision) is a
		// pure function of completed-round tallies — deterministic at
		// any worker count, and observe-only: the half-widths below are
		// recomputed for display, never fed back into the loop.
		if telemetry.SinkActive() {
			hwSDC := stats.StratifiedHalfWidth(tallies(false), sp.Confidence)
			hwDUE := math.NaN()
			if dueArmed {
				hwDUE = stats.StratifiedHalfWidth(tallies(true), sp.Confidence)
			}
			telemetry.Emit("round",
				telemetry.KV{K: "round", V: round},
				telemetry.KV{K: "budget", V: len(keys)},
				telemetry.KV{K: "spent", V: spent},
				telemetry.KV{K: "alloc", V: alloc},
				telemetry.KV{K: "sdc_half_width", V: hwSDC},
				telemetry.KV{K: "due_half_width", V: hwDUE},
				telemetry.KV{K: "stopped", V: stopped},
			)
		}
		if telemetry.ProgressActive() {
			sess.Progressf("%s: round %d, %d/%d samples",
				c.Kernel.Name(), round, spent, c.Faults)
		}
	}
	if stopped && telemetry.SinkActive() {
		telemetry.Emit("early_stop",
			telemetry.KV{K: "spent", V: spent},
			telemetry.KV{K: "budget", V: c.Faults},
			telemetry.KV{K: "rounds", V: round},
		)
	}
	res := c.assembleStratified(space, sts, spent, stopped)
	sdc, due := tallies(false), tallies(true)
	res.StratifiedPVF = stats.PostStratified(sdc)
	res.PVFCILow, res.PVFCIHigh = stats.StratifiedCI(sdc, sp.Confidence)
	res.StratifiedPDUE = stats.PostStratified(due)
	res.PDUECILow, res.PDUECIHigh = stats.StratifiedCI(due, sp.Confidence)
	res.CheckpointDegraded, res.CheckpointError = sess.Close()
	return res, nil
}

// assembleStratified folds the per-stratum outcomes into a Result, in
// deterministic (stratum, index) order; runStratified adds the
// post-stratified estimates.
func (c Campaign) assembleStratified(space *Space, sts []stratumState, spent int, stopped bool) *Result {
	res := &Result{Faults: spent, EarlyStopped: stopped}
	for h := range sts {
		sdcs, dues, masked := res.SDCs, res.DUEs(), res.Masked
		for idx, s := range sts[h].outs {
			res.tally(s, c.KeepOutputs, exec.SampleKey(h, idx), sts[h].seeds[idx])
		}
		sr := StratumResult{
			Desc:   space.Strata[h].Desc(),
			Weight: space.Strata[h].Weight,
			Faults: len(sts[h].outs),
			SDCs:   res.SDCs - sdcs,
			DUEs:   res.DUEs() - dues,
			Masked: res.Masked - masked,
		}
		res.Strata = append(res.Strata, sr)
		if telemetry.SinkActive() {
			telemetry.Emit("stratum",
				telemetry.KV{K: "desc", V: sr.Desc},
				telemetry.KV{K: "weight", V: sr.Weight},
				telemetry.KV{K: "faults", V: sr.Faults},
				telemetry.KV{K: "sdcs", V: sr.SDCs},
				telemetry.KV{K: "dues", V: sr.DUEs},
				telemetry.KV{K: "masked", V: sr.Masked},
			)
		}
	}
	res.rates()
	return res
}
