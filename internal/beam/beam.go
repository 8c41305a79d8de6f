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
	"math"

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
	// default sequential mode.
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
	// Watchdog is the op-budget hang-detection factor used by
	// behavioral runs (0 means inject.DefaultWatchdogFactor).
	Watchdog float64
	// TrapNonFinite arms the FP trap in behavioral runs.
	TrapNonFinite bool
	// Checkpoint, when non-nil, journals classified trials for
	// crash-tolerant resume through the same driver (exec.Session) as
	// inject.Campaign.Checkpoint: per-trial random streams regardless of
	// Workers, byte-identical aggregates across interruptions.
	Checkpoint *exec.Checkpoint
	// Context, when non-nil, makes the campaign cancellable exactly like
	// inject.Campaign.Context: in-flight trials drain, the journal (if
	// any) is flushed and synced, and Run returns an *exec.Interrupted.
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
	// CheckpointDegraded/CheckpointError mirror inject.Result's fields:
	// the journal hit a persistent I/O failure and checkpointing was
	// disabled mid-campaign. Infrastructure status, not beam statistics;
	// byte-identity comparisons clear them first.
	CheckpointDegraded bool   `json:",omitempty"`
	CheckpointError    string `json:",omitempty"`
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
	// driver as an injection campaign: one flat batch of trials.
	sess, err := exec.NewSession(e.Context, e.Workers, e.Checkpoint, trialOutcome.record, trialRecord.outcome)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	outs, seeds, err := sess.Run(exec.Flat(e.Seed, e.Trials), func(_ int, r *rng.Rand) trialOutcome {
		return ctx.runTrial(r)
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
	res.CheckpointDegraded, res.CheckpointError = sess.Close()

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

	watchdog := e.Watchdog
	if watchdog <= 0 && (e.BehavioralDUE || e.TrapNonFinite) {
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

// trialRecord is trialOutcome's checkpoint encoding; floats travel as
// IEEE bit patterns so resume stays bit-exact (JSON has no NaN/Inf).
type trialRecord struct {
	Class      int      `json:"cl"`
	Outcome    int      `json:"o,omitempty"`
	Cause      int      `json:"c,omitempty"`
	RelErrBits uint64   `json:"r,omitempty"`
	OutputBits []uint64 `json:"out,omitempty"`
	Aborted    bool     `json:"ab,omitempty"`
	Fault      string   `json:"f,omitempty"`
	Panic      string   `json:"p,omitempty"`
}

func (o trialOutcome) record() trialRecord {
	return trialRecord{
		Class:      int(o.class),
		Outcome:    o.outcome,
		Cause:      int(o.cause),
		RelErrBits: math.Float64bits(o.relErr),
		OutputBits: exec.MapSlice(o.output, math.Float64bits),
		Aborted:    o.aborted,
		Fault:      o.fault,
		Panic:      o.panicMsg,
	}
}

func (rec trialRecord) outcome() trialOutcome {
	return trialOutcome{
		class:    arch.ResourceClass(rec.Class),
		outcome:  rec.Outcome,
		cause:    inject.DUECause(rec.Cause),
		relErr:   math.Float64frombits(rec.RelErrBits),
		output:   exec.MapSlice(rec.OutputBits, math.Float64frombits),
		aborted:  rec.Aborted,
		fault:    rec.Fault,
		panicMsg: rec.Panic,
	}
}

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

// run executes one faulty run under the trial's fault spec with the
// campaign's detectors armed, folding the classification into out. A
// simulator panic becomes an aborted-trial diagnostic.
func (c *trialCtx) run(spec inject.FaultSpec, out *trialOutcome) {
	spec.Watchdog = c.watchdog
	spec.TrapNonFinite = c.exp.TrapNonFinite
	rr, abort := c.runner.RunSpec(spec, c.exp.KeepOutputs)
	if abort != nil {
		out.aborted = true
		out.fault = spec.Desc()
		out.panicMsg = abort.String()
		return
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
}

// runTrial simulates one strike, drawing all randomness from r.
func (c *trialCtx) runTrial(r *rng.Rand) trialOutcome {
	e := c.exp
	m := e.Mapping
	x := sampleExposure(r, c.exposures, c.rate)
	out := trialOutcome{class: x.Class}

	width := 1
	if e.MBU.Enabled() && sramClass(x.Class) {
		width = e.MBU.sampleWidth(r)
	}
	if x.Protected {
		// SECDED: single-bit corrected; multi-bit detected
		// uncorrectable -> machine check (DUE).
		if width >= 2 {
			out.outcome = outDUE
		}
		return out
	}

	switch x.Class {
	case arch.ControlLogic:
		if !e.BehavioralDUE {
			// Legacy model: an asserted constant DUE probability.
			if r.Float64() < x.DUEFraction {
				out.outcome = outDUE
			}
			return out
		}
		// Behavioral model: the strike corrupts actual control state
		// (loop counter / index / pointer) and the DUE rate emerges
		// from running the workload with it.
		cf := inject.SampleControlFault(r, m.Counts)
		c.run(inject.FaultSpec{Control: &cf}, &out)

	case arch.ConfigMemory:
		kind := sampleOpKind(r, x.OpWeights, m.Counts)
		mod := m.UnrollFactor
		if mod == 0 {
			mod = 1
		}
		fault := inject.OpFault{
			Kind:   kind,
			Index:  r.Uint64n(mod),
			Modulo: mod,
			Bit:    r.Intn(m.Format.Width()),
			Width:  width,
			Target: inject.TargetResult,
		}
		c.run(inject.FaultSpec{Op: &fault}, &out)

	case arch.FunctionalUnit:
		if r.Float64() >= x.Vuln() {
			return out
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
			fault := inject.OpFault{
				Index:  r.Uint64n(m.Counts.IntSites),
				Bit:    r.Intn(5),
				Target: inject.TargetIntState,
			}
			c.run(inject.FaultSpec{Op: &fault}, &out)
			break
		}
		kind := sampleOpKind(r, x.OpWeights, m.Counts)
		fault := inject.OpFault{
			Kind:   kind,
			Index:  r.Uint64n(m.Counts.ByOp[kind]),
			Bit:    r.Intn(m.Format.Width()),
			Width:  width,
			Target: inject.TargetResult,
		}
		c.run(inject.FaultSpec{Op: &fault}, &out)

	case arch.RegisterFile:
		fault := inject.SampleOpFault(r, m.Counts, m.Format, 0, true, inject.TargetOperand)
		fault.Width = width
		c.run(inject.FaultSpec{Op: &fault}, &out)

	case arch.MemorySRAM:
		mf := inject.SampleMemFault(r, c.arrayLens, m.Format)
		mf.Width = width
		c.run(inject.FaultSpec{Mem: []inject.MemFault{mf}}, &out)

	default:
		panic(fmt.Sprintf("beam: unhandled resource class %v", x.Class))
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
