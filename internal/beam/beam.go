// Package beam simulates an accelerated-neutron-beam campaign like the
// paper's ChipIR runs: strikes are sampled over the device's sensitive
// resources proportionally to bits x cross-section, each strike is
// translated into a concrete fault in an actual execution of the
// workload, and the outcome (masked / SDC / DUE) is classified against
// the golden output.
//
// The FIT rate follows as
//
//	FIT_outcome = (Σ unprotected bits x σ) x P(outcome | strike)
//
// in the same arbitrary units the paper reports. This is the standard
// decomposition of beam results into exposure (which only the device
// model knows) and propagation (which only running the workload with the
// fault can tell) — combining the two is exactly how the paper relates
// its beam and fault-injection data (Section 3.3).
//
// Strike translation per resource class:
//
//	ConfigMemory   -> persistent corruption of one hardware operator
//	                  instance (every UnrollFactor-th dynamic op of one
//	                  kind), until "reprogramming" — i.e. for the whole
//	                  observed execution
//	FunctionalUnit -> with probability VulnFraction, a single dynamic
//	                  operation's result bit flips
//	RegisterFile   -> a single dynamic operation's input operand bit
//	                  flips (if unprotected)
//	MemorySRAM     -> an input-array element bit flips before the run
//	ControlLogic   -> legacy: DUE with probability DUEFraction, else
//	                  masked; with Experiment.BehavioralDUE, a concrete
//	                  control-state corruption (loop counter / index /
//	                  pointer) runs the workload and the DUE rate
//	                  emerges from observed crashes and watchdog hangs
package beam

import (
	"context"
	"encoding/json"
	"fmt"

	"mixedrel/internal/arch"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/inject"
	"mixedrel/internal/rng"
	"mixedrel/internal/stats"
)

// MBU models multi-bit upsets: the probability that a strike on an SRAM
// resource upsets 2 or 3 adjacent cells instead of one (Quinn et al.,
// the paper's [8], measured exactly this growth with technology
// scaling). The zero value disables MBUs, which is the paper's baseline
// single-bit analysis.
type MBU struct {
	P2, P3 float64
}

// Enabled reports whether any multi-bit probability is set.
func (m MBU) Enabled() bool { return m.P2 > 0 || m.P3 > 0 }

// sampleWidth draws an upset width (1, 2, or 3 adjacent bits).
func (m MBU) sampleWidth(r *rng.Rand) int {
	u := r.Float64()
	switch {
	case u < m.P3:
		return 3
	case u < m.P3+m.P2:
		return 2
	default:
		return 1
	}
}

// sramClass reports whether strikes on this class hit SRAM cells (where
// adjacent-bit MBUs are physically meaningful).
func sramClass(c arch.ResourceClass) bool {
	switch c {
	case arch.RegisterFile, arch.MemorySRAM, arch.ConfigMemory:
		return true
	}
	return false
}

// Experiment is one beam campaign: a mapped workload plus the number of
// simulated strikes.
type Experiment struct {
	Mapping *arch.Mapping
	// Trials is the number of simulated strikes. The paper's 100+ hours
	// per configuration collect O(100) errors; a few thousand simulated
	// strikes give comparable statistics.
	Trials int
	Seed   uint64
	// KeepOutputs retains decoded faulty outputs of SDC trials (for CNN
	// criticality post-processing).
	KeepOutputs bool
	// Workers, when above 1, runs trials on that many goroutines with
	// per-trial random streams: deterministic in Seed and independent
	// of scheduling, but a different (equally valid) sample than the
	// default sequential mode, which draws every strike in order from
	// one stream and runs the trials on the shared scheduler
	// (exec.MaxWorkers goroutines, same bits at any count).
	Workers int
	// MBU enables multi-bit upsets on SRAM resources. With MBUs
	// enabled, SECDED-protected resources (Protected exposures) join
	// the campaign: single-bit strikes are corrected (masked) but
	// double-bit strikes are detected-uncorrectable, i.e. DUEs —
	// exactly how the Xeon Phi MCA turns register-file MBUs into
	// machine checks.
	MBU MBU
	// BehavioralDUE replaces the constant ControlLogic DUEFraction with
	// actual control-state fault injection (inject.SiteControl
	// semantics): each control strike runs the workload with a
	// corrupted loop counter / index / pointer, and FIT_DUE emerges
	// from the observed crash/hang rate instead of an asserted
	// constant. The watchdog and (optional) FP trap also arm for the
	// datapath strike classes, so e.g. a NaN-producing register flip
	// can surface as a crash rather than an SDC.
	BehavioralDUE bool
	// TrapNonFinite arms the FP trap in behavioral runs.
	TrapNonFinite bool
	// Context, when non-nil, makes the campaign cancellable like
	// inject.Campaign.Context: in-flight trials drain and Run returns an
	// *exec.Interrupted. A beam campaign keeps no journal, so its
	// Journaled is -1 and a rerun starts from the first trial.
	Context context.Context
}

// ClassCounts tallies outcomes attributed to one resource class.
type ClassCounts struct {
	Strikes, SDC, DUE, Masked int
}

// Result summarizes a beam campaign.
type Result struct {
	Trials           int
	SDC, DUE, Masked int
	// DUECrash and DUEHang split the behavioral DUEs by detector
	// (constant-DUEFraction and SECDED DUEs carry no split).
	DUECrash, DUEHang  int
	ExposureRate       float64
	FITSDC, FITDUE     float64
	FITSDCLo, FITSDCHi float64 // 95% Poisson CI on FITSDC
	RelErrs            []float64
	Outputs            [][]float64
	ByClass            map[arch.ResourceClass]*ClassCounts
	// Aborted diagnoses trials whose execution panicked inside the
	// simulator; they are excluded from every rate denominator.
	Aborted []inject.AbortedSample
}

// Classified returns how many trials produced a masked/SDC/DUE
// classification (Trials minus aborted trials).
func (r *Result) Classified() int { return r.Trials - len(r.Aborted) }

// Run executes the campaign. Results are deterministic in Experiment.Seed.
func (e Experiment) Run() (*Result, error) {
	ctx, err := e.trials()
	if err != nil {
		return nil, err
	}
	res := &Result{Trials: e.Trials, ExposureRate: ctx.rate,
		ByClass: make(map[arch.ResourceClass]*ClassCounts)}
	for _, x := range ctx.exposures {
		res.ByClass[x.Class] = &ClassCounts{}
	}

	// A beam experiment is a different per-sample function on the same
	// driver as an injection campaign: one flat batch of trials, with no
	// journal.
	sess, err := exec.NewSession[trialSpec, trialOutcome](e.Context, e.Workers, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	outs, seeds, err := sess.Run(exec.Flat(e.Seed, e.Trials), func(_ int, r *rng.Rand) trialSpec {
		return ctx.drawTrial(r)
	}, func(_ int, t trialSpec) trialOutcome {
		return ctx.runTrial(t)
	})
	if err != nil {
		return nil, err
	}
	for t, o := range outs {
		if o.aborted {
			var seed uint64
			if seeds != nil {
				seed = seeds[t]
			}
			res.Aborted = append(res.Aborted, inject.AbortedSample{
				Index: t, Seed: seed, Fault: o.fault, Panic: o.panicMsg})
			continue
		}
		res.record(o, e.KeepOutputs)
	}

	n := float64(res.Classified())
	if n > 0 {
		res.FITSDC = ctx.rate * float64(res.SDC) / n
		res.FITDUE = ctx.rate * float64(res.DUE) / n
		lo, hi := stats.PoissonCI(int64(res.SDC), 0.95)
		res.FITSDCLo = ctx.rate * lo / n
		res.FITSDCHi = ctx.rate * hi / n
	}
	return res, nil
}

// trials validates the experiment and builds the state its trials
// share.
func (e Experiment) trials() (*trialCtx, error) {
	m := e.Mapping
	if m == nil {
		return nil, fmt.Errorf("beam: experiment has no mapping")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if e.Trials <= 0 {
		return nil, fmt.Errorf("beam: %d trials", e.Trials)
	}

	// Only unprotected resources can produce observable events in the
	// single-bit baseline; with MBUs enabled, SECDED-protected SRAM
	// joins the campaign (double-bit upsets defeat the correction).
	var exposures []arch.Exposure
	var rate float64
	for _, x := range m.Exposures {
		if x.Rate() <= 0 {
			continue
		}
		if x.Protected && !e.MBU.Enabled() {
			continue
		}
		exposures = append(exposures, x)
		rate += x.Rate()
	}
	if len(exposures) == 0 {
		return nil, fmt.Errorf("beam: mapping has no unprotected exposure")
	}

	// The runner memoizes the golden output and reuses per-worker
	// scratch buffers across trials; fault-free execution happens at
	// most once per (kernel, format, wrap) in the whole process.
	runner := inject.NewRunner(m.Kernel, m.Format, m.WrapKey, m.Wrap)

	var watchdog float64
	if e.BehavioralDUE || e.TrapNonFinite {
		watchdog = inject.DefaultWatchdogFactor
	}
	return &trialCtx{exp: e, exposures: exposures, rate: rate,
		runner: runner, arrayLens: runner.ArrayLens(), watchdog: watchdog}, nil
}

// trialOutcome is the classified result of one simulated strike.
type trialOutcome struct {
	class   arch.ResourceClass
	outcome int // 0 masked, 1 SDC, 2 DUE
	// cause splits behavioral DUEs by detector (CauseNone for the
	// constant-DUEFraction and SECDED paths).
	cause  inject.DUECause
	relErr float64
	output []float64
	// aborted marks a trial whose execution panicked in the simulator;
	// fault/panicMsg carry its replay diagnostic.
	aborted         bool
	fault, panicMsg string
}

const (
	outMasked = iota
	outSDC
	outDUE
)

// record folds one trial into the aggregate result.
func (res *Result) record(o trialOutcome, keep bool) {
	cc := res.ByClass[o.class]
	cc.Strikes++
	switch o.outcome {
	case outSDC:
		res.SDC++
		cc.SDC++
		res.RelErrs = append(res.RelErrs, o.relErr)
		if keep {
			res.Outputs = append(res.Outputs, o.output)
		}
	case outDUE:
		res.DUE++
		cc.DUE++
		switch o.cause {
		case inject.CauseWatchdog:
			res.DUEHang++
		case inject.CauseSegfault, inject.CauseTrap:
			res.DUECrash++
		}
	default:
		res.Masked++
		cc.Masked++
	}
}

// trialCtx holds the immutable campaign state shared by trials.
type trialCtx struct {
	exp       Experiment
	exposures []arch.Exposure
	rate      float64
	runner    *inject.Runner
	arrayLens []int
	watchdog  float64
}

// trialSpec is one strike as drawn: the struck class and either the
// outcome the draw already decided (protected SRAM, the legacy
// ControlLogic model, a functional-unit miss) or the fault whose run
// decides it. It holds everything by value, so a trial allocates
// nothing to draw or pass.
type trialSpec struct {
	class   arch.ResourceClass
	outcome int  // the decided outcome when !runs
	runs    bool // fault must run to classify the trial
	// fault is the strike to run; its zero Site, SiteOperation, makes
	// the op-fault classes set Op alone.
	fault inject.Fault
}

// drawTrial takes every random decision of one strike from r.
func (c *trialCtx) drawTrial(r *rng.Rand) trialSpec {
	e := c.exp
	m := e.Mapping
	x := sampleExposure(r, c.exposures, c.rate)
	t := trialSpec{class: x.Class}

	width := 1
	if e.MBU.Enabled() && sramClass(x.Class) {
		width = e.MBU.sampleWidth(r)
	}
	if x.Protected {
		// SECDED: single-bit corrected; multi-bit detected
		// uncorrectable -> machine check (DUE).
		if width >= 2 {
			t.outcome = outDUE
		}
		return t
	}

	switch x.Class {
	case arch.ControlLogic:
		if !e.BehavioralDUE {
			// Legacy model: an asserted constant DUE probability.
			if r.Float64() < x.DUEFraction {
				t.outcome = outDUE
			}
			return t
		}
		// Behavioral model: the strike corrupts actual control state
		// (loop counter / index / pointer) and the DUE rate emerges
		// from running the workload with it.
		t.fault = inject.Fault{Site: inject.SiteControl, Control: inject.SampleControlFault(r, m.Counts)}

	case arch.ConfigMemory:
		kind := sampleOpKind(r, x.OpWeights, m.Counts)
		mod := m.UnrollFactor
		if mod == 0 {
			mod = 1
		}
		t.fault.Op = inject.OpFault{
			Kind:   kind,
			Index:  r.Uint64n(mod),
			Modulo: mod,
			Bit:    r.Intn(m.Format.Width()),
			Width:  width,
			Target: inject.TargetResult,
		}

	case arch.FunctionalUnit:
		if r.Float64() >= x.Vuln() {
			return t
		}
		// A functional-unit strike lands either on the floating-point
		// datapath or — proportionally to the weighted integer
		// sequencing state of software routines — on an integer
		// decision (table index / shift count).
		intW := x.IntStateWeight * float64(m.Counts.IntSites)
		var opW float64
		for op, w := range x.OpWeights {
			if m.Counts.ByOp[op] > 0 {
				opW += w
			}
		}
		if intW > 0 && r.Float64() < intW/(intW+opW) {
			t.fault.Op = inject.OpFault{
				Index:  r.Uint64n(m.Counts.IntSites),
				Bit:    r.Intn(5),
				Target: inject.TargetIntState,
			}
			break
		}
		kind := sampleOpKind(r, x.OpWeights, m.Counts)
		t.fault.Op = inject.OpFault{
			Kind:   kind,
			Index:  r.Uint64n(m.Counts.ByOp[kind]),
			Bit:    r.Intn(m.Format.Width()),
			Width:  width,
			Target: inject.TargetResult,
		}

	case arch.RegisterFile:
		t.fault.Op = inject.SampleOpFault(r, m.Counts, m.Format, 0, true, inject.TargetOperand)
		t.fault.Op.Width = width

	case arch.MemorySRAM:
		t.fault = inject.Fault{Site: inject.SiteMemory, Mem: inject.SampleMemFault(r, c.arrayLens, m.Format)}
		t.fault.Mem.Width = width

	default:
		panic(fmt.Sprintf("beam: unhandled resource class %v", x.Class))
	}
	t.runs = true
	return t
}

// runTrial classifies one drawn strike: it runs the strike's fault
// with the campaign's detectors armed unless the draw decided the
// outcome. A simulator panic becomes an aborted-trial diagnostic.
func (c *trialCtx) runTrial(t trialSpec) trialOutcome {
	out := trialOutcome{class: t.class, outcome: t.outcome}
	if !t.runs {
		return out
	}
	spec := t.fault.Spec()
	spec.Watchdog = c.watchdog
	spec.TrapNonFinite = c.exp.TrapNonFinite
	rr, abort := c.runner.RunSpec(spec, c.exp.KeepOutputs)
	if abort != nil {
		out.aborted = true
		out.fault = spec.Desc()
		out.panicMsg = abort.String()
		return out
	}
	switch rr.Outcome {
	case inject.SDC:
		out.outcome = outSDC
		out.relErr = rr.MaxRelErr
		out.output = rr.Output
	case inject.CrashDUE, inject.HangDUE:
		out.outcome = outDUE
		out.cause = rr.Cause
	}
	return out
}

// sampleExposure picks an exposure proportionally to its rate.
func sampleExposure(r *rng.Rand, exposures []arch.Exposure, total float64) arch.Exposure {
	u := r.Float64() * total
	for _, x := range exposures {
		u -= x.Rate()
		if u < 0 {
			return x
		}
	}
	return exposures[len(exposures)-1]
}

// sampleOpKind picks an operation kind proportionally to weights,
// restricted to kinds the kernel actually executed.
func sampleOpKind(r *rng.Rand, weights [fp.NumOps]float64, counts fp.OpCounts) fp.Op {
	var total float64
	for op, w := range weights {
		if counts.ByOp[op] > 0 {
			total += w
		}
	}
	if total <= 0 {
		// Fall back to uniform over executed kinds.
		var kinds []fp.Op
		for op := fp.Op(0); int(op) < fp.NumOps; op++ {
			if counts.ByOp[op] > 0 {
				kinds = append(kinds, op)
			}
		}
		return kinds[r.Intn(len(kinds))]
	}
	u := r.Float64() * total
	for op, w := range weights {
		if counts.ByOp[op] == 0 {
			continue
		}
		u -= w
		if u < 0 {
			return fp.Op(op)
		}
	}
	for op := fp.NumOps - 1; op >= 0; op-- {
		if counts.ByOp[op] > 0 {
			return fp.Op(op)
		}
	}
	panic("beam: no executed operations")
}

// MarshalJSON encodes the result with non-finite relative errors (and
// output values) clamped to +-MaxFloat64, since JSON has no Inf/NaN.
func (r *Result) MarshalJSON() ([]byte, error) {
	type alias Result
	safe := alias(*r)
	safe.RelErrs = stats.ClampNonFinite(r.RelErrs)
	safe.Outputs = exec.MapSlice(r.Outputs, stats.ClampNonFinite)
	return json.Marshal(safe)
}
