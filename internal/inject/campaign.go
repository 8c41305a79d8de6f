package inject

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
	"mixedrel/internal/stats"
	"mixedrel/internal/telemetry"
)

// Site selects where a campaign's faults land.
type Site int

const (
	// SiteOperation corrupts the result of a random dynamic operation.
	SiteOperation Site = iota
	// SiteOperand corrupts one input of a random dynamic operation.
	SiteOperand
	// SiteMemory corrupts a random input-array element before the run.
	SiteMemory
	// SiteControl corrupts control state (loop counter, array index,
	// data pointer) consumed at a random dynamic operation — the
	// behavioral source of crash/hang DUEs.
	SiteControl
)

func (s Site) String() string {
	switch s {
	case SiteOperation:
		return "operation"
	case SiteOperand:
		return "operand"
	case SiteMemory:
		return "memory"
	case SiteControl:
		return "control"
	}
	return "site?"
}

// SampleOpFault draws a uniformly random single-bit operation fault over
// the dynamic operations recorded in counts. With anyKind, the index
// ranges over all operations; otherwise over operations of kind only
// (which must have executed at least once).
func SampleOpFault(r *rng.Rand, counts fp.OpCounts, f fp.Format, kind fp.Op, anyKind bool, target Target) OpFault {
	var n uint64
	if anyKind {
		n = counts.Total()
	} else {
		n = counts.ByOp[kind]
	}
	if n == 0 {
		panic(fmt.Sprintf("inject: no dynamic operations to strike (kind %v, any %v)", kind, anyKind))
	}
	return OpFault{
		Kind:       kind,
		AnyKind:    anyKind,
		Index:      r.Uint64n(n),
		Bit:        r.Intn(f.Width()),
		Target:     target,
		OperandIdx: r.Intn(3),
	}
}

// SampleMemFault draws a uniformly random single-bit memory fault over
// the elements of the given input arrays (weighted by array length).
func SampleMemFault(r *rng.Rand, arrayLens []int, f fp.Format) MemFault {
	total := 0
	for _, n := range arrayLens {
		total += n
	}
	if total == 0 {
		panic("inject: no memory elements to strike")
	}
	pick := r.Intn(total)
	for a, n := range arrayLens {
		if pick < n {
			return MemFault{Array: a, Elem: pick, Bit: r.Intn(f.Width())}
		}
		pick -= n
	}
	panic("unreachable")
}

// Campaign is a CAROL-FI-style statistical fault-injection campaign:
// Faults independent single-bit flips, one per execution, sites sampled
// uniformly from Sites.
type Campaign struct {
	Kernel kernels.Kernel
	Format fp.Format
	// Faults is the number of injected executions (the paper uses
	// >= 2000 per configuration).
	Faults int
	Seed   uint64
	// Sites lists the eligible fault sites; one is chosen uniformly per
	// injection. Empty defaults to {SiteOperand, SiteMemory}, CAROL-FI's
	// variable/register model.
	Sites []Site
	// KeepOutputs retains each SDC's decoded output (needed for CNN
	// criticality classification).
	KeepOutputs bool
	// Wrap, when non-nil, installs a platform environment transform
	// (e.g. a software exp) between the kernel and the injector, for
	// both the golden and the faulty runs.
	Wrap func(fp.Env) fp.Env
	// WrapKey identifies Wrap's arithmetic behavior (e.g.
	// fp.ExpShape.Key) so the campaign's fault-free artifacts can be
	// memoized across campaigns. Leave empty for a nil Wrap; a non-nil
	// Wrap with an empty WrapKey is simply not cached.
	WrapKey string
	// Workers, when above 1, runs injections on that many goroutines
	// with per-fault random streams: deterministic in Seed and
	// independent of scheduling, but a different (equally valid) sample
	// than the default sequential mode.
	Workers int
	// Watchdog is the op-budget factor k for hang detection: a faulty
	// run executing more than k x its golden operation count is killed
	// and classified HangDUE. Zero enables DefaultWatchdogFactor when
	// SiteControl is among the sites (control faults are what cause
	// runaways) and disables the watchdog otherwise.
	Watchdog float64
	// TrapNonFinite arms the FP trap: the first non-finite result after
	// a corruption is classified CrashDUE instead of propagating into
	// the output.
	TrapNonFinite bool
	// Checkpoint, when non-nil, makes the campaign crash-tolerant and
	// resumable: the driver (exec.Session) journals classified samples
	// to Checkpoint.Path, and a re-run with the same configuration fills
	// in only the missing ones, yielding a byte-identical result. A
	// checkpoint takes the campaign out of sequential mode: every sample
	// draws from its own stream (the Workers > 1 derivation) regardless
	// of Workers, so its value never depends on which samples a previous
	// invocation completed.
	Checkpoint *exec.Checkpoint
	// Sampling, when non-nil, runs the campaign through the
	// variance-reduction sampling engine (stratified.go): the fault
	// budget is allocated over (op-class x bit band x kernel phase)
	// strata instead of drawn uniformly, and the Result additionally
	// carries post-stratified estimates with confidence intervals,
	// per-stratum tallies, and — with a CIHalfWidth target — sequential
	// early stopping.
	Sampling *Sampling
	// Context, when non-nil, makes the campaign cancellable: once the
	// context is done, no new sample starts, in-flight samples drain to
	// completion, the checkpoint journal (if any) is flushed and
	// synced, and Run returns an *exec.Interrupted error
	// (errors.Is(err, exec.ErrInterrupted)) carrying how many samples
	// are safely journaled. Re-running the same checkpointed campaign
	// resumes byte-identically, exactly as after a crash.
	Context context.Context
}

// Result summarizes a campaign.
type Result struct {
	Faults, SDCs, Masked int
	// CrashDUEs and HangDUEs count behaviorally detected-unrecoverable
	// outcomes (emulated segfaults/FP traps, and watchdog kills).
	CrashDUEs, HangDUEs int
	// PVF is the program vulnerability factor: P(SDC | classified
	// fault). PDUE is the companion split P(crash or hang | classified
	// fault); aborted samples are excluded from both denominators.
	PVF  float64
	PDUE float64
	// RelErrs holds one max-relative-error per SDC, the input to the
	// TRE criticality curves.
	RelErrs []float64
	// Outputs holds the decoded faulty output of each SDC when
	// KeepOutputs was set (parallel to RelErrs).
	Outputs [][]float64
	// Aborted diagnoses samples whose execution panicked inside the
	// simulator: the campaign degrades gracefully instead of dying, and
	// each entry carries what is needed to replay the sample alone.
	Aborted []AbortedSample
	// Strata holds the per-stratum tallies of a stratified campaign
	// (Campaign.Sampling non-nil); empty for uniform campaigns.
	Strata []StratumResult `json:",omitempty"`
	// StratifiedPVF/StratifiedPDUE are the post-stratified estimates
	// of P(SDC) and P(DUE) — unbiased for the same quantities as
	// PVF/PDUE, but with the between-strata variance removed — and the
	// CI fields their confidence intervals at Sampling.Confidence.
	StratifiedPVF  float64 `json:",omitempty"`
	StratifiedPDUE float64 `json:",omitempty"`
	PVFCILow       float64 `json:",omitempty"`
	PVFCIHigh      float64 `json:",omitempty"`
	PDUECILow      float64 `json:",omitempty"`
	PDUECIHigh     float64 `json:",omitempty"`
	// EarlyStopped reports that sequential early stopping halted the
	// campaign before the full fault budget was spent (Faults then
	// counts the samples actually taken).
	EarlyStopped bool `json:",omitempty"`
	// CheckpointDegraded reports that the checkpoint journal hit a
	// persistent I/O failure mid-campaign and checkpointing was
	// disabled (see exec.Journal): the classification above is complete
	// and correct, but a crash before the next successful full run
	// resumes only from the last durable record. CheckpointError is the
	// rendered failure. These are infrastructure status, not campaign
	// statistics — byte-identity contracts compare results with them
	// cleared.
	CheckpointDegraded bool   `json:",omitempty"`
	CheckpointError    string `json:",omitempty"`
}

// DUEs returns the total detected-unrecoverable count.
func (r *Result) DUEs() int { return r.CrashDUEs + r.HangDUEs }

// Classified returns how many samples produced a masked/SDC/DUE
// classification (Faults minus aborted samples).
func (r *Result) Classified() int { return r.Faults - len(r.Aborted) }

// AbortedSample is the replay diagnostic of one sample whose execution
// panicked (a simulator failure, distinct from an emulated DUE).
type AbortedSample struct {
	// Index is the sample's position in the campaign.
	Index int
	// Seed is the sample's private random-stream seed: rng.New(Seed)
	// reproduces its fault draw exactly. Zero in sequential mode
	// (Workers <= 1, no checkpoint, no Sampling), where replay means
	// re-running the campaign with the campaign seed.
	Seed uint64
	// Fault describes the sampled fault specification.
	Fault string
	// Panic is the rendered panic value — deliberately without the
	// stack, which contains nondeterministic addresses and must stay
	// out of tables and checkpoint journals.
	Panic string
}

// Run executes the campaign. It is deterministic in Seed.
func (c Campaign) Run() (*Result, error) {
	if c.Kernel == nil {
		return nil, fmt.Errorf("inject: campaign has no kernel")
	}
	if c.Faults <= 0 {
		return nil, fmt.Errorf("inject: campaign with %d faults", c.Faults)
	}
	return c.runOn(NewRunner(c.Kernel, c.Format, c.WrapKey, c.Wrap))
}

// runOn executes the campaign's samples on runner.
func (c Campaign) runOn(runner *Runner) (*Result, error) {
	sites := c.Sites
	if len(sites) == 0 {
		sites = []Site{SiteOperand, SiteMemory}
	}
	for _, s := range sites {
		if s < SiteOperation || s > SiteControl {
			return nil, fmt.Errorf("inject: unknown site %v", s)
		}
	}
	if runner.Counts().Total() == 0 {
		return nil, fmt.Errorf("inject: kernel %s executes no operations", c.Kernel.Name())
	}

	watchdog := c.Watchdog
	if watchdog <= 0 {
		for _, s := range sites {
			if s == SiteControl {
				watchdog = DefaultWatchdogFactor
				break
			}
		}
	}

	// Telemetry is strictly observe-only here: events and progress
	// describe the campaign, and nothing emitted (or any wall-clock the
	// sink reads) flows back into sampling, classification, or the
	// Result — enforced by the telemetry analyzer.
	if telemetry.SinkActive() {
		mode := "uniform"
		switch {
		case c.Sampling != nil:
			mode = "stratified"
		case c.Checkpoint != nil:
			mode = "checkpointed"
		}
		telemetry.Emit("campaign_start",
			telemetry.KV{K: "kernel", V: c.Kernel.Name()},
			telemetry.KV{K: "format", V: c.Format.String()},
			telemetry.KV{K: "mode", V: mode},
			telemetry.KV{K: "faults", V: c.Faults},
			telemetry.KV{K: "workers", V: c.Workers},
			telemetry.KV{K: "seed", V: c.Seed},
		)
	}

	var res *Result
	var err error
	if c.Sampling != nil {
		res, err = c.runStratified(runner, sites, watchdog)
	} else {
		res, err = c.runUniform(runner, sites, watchdog)
	}
	if err != nil {
		return nil, err
	}
	emitCampaignEnd(res)
	return res, nil
}

// runUniform draws every sample's site, then its fault, uniformly: the
// campaign is one flat batch on the driver.
func (c Campaign) runUniform(runner *Runner, sites []Site, watchdog float64) (*Result, error) {
	sess, err := exec.NewSession(c.Context, c.Workers, c.Checkpoint, sample.record, sampleRecord.sample)
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	counts, arrayLens := runner.Counts(), runner.ArrayLens()
	var done atomic.Int64
	showProg := telemetry.ProgressActive()
	outs, seeds, err := sess.Run(exec.Flat(c.Seed, c.Faults), func(_ int, r *rng.Rand) sample {
		var spec FaultSpec
		switch sites[r.Intn(len(sites))] {
		case SiteOperation:
			f := SampleOpFault(r, counts, c.Format, 0, true, TargetResult)
			spec.Op = &f
		case SiteOperand:
			f := SampleOpFault(r, counts, c.Format, 0, true, TargetOperand)
			spec.Op = &f
		case SiteMemory:
			mf := SampleMemFault(r, arrayLens, c.Format)
			spec.Mem = []MemFault{mf}
		case SiteControl:
			cf := SampleControlFault(r, counts)
			spec.Control = &cf
		}
		s := c.runSample(runner, spec, watchdog)
		if showProg {
			sess.Progressf("%s: %d/%d samples", c.Kernel.Name(), done.Add(1), c.Faults)
		}
		return s
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Faults: c.Faults}
	for i, s := range outs {
		var seed uint64
		if seeds != nil {
			seed = seeds[i]
		}
		res.tally(s, c.KeepOutputs, i, seed)
	}
	res.rates()
	res.CheckpointDegraded, res.CheckpointError = sess.Close()
	return res, nil
}

// runSample runs one fault specification with the campaign's detectors
// armed. A simulator panic becomes an aborted sample.
func (c Campaign) runSample(runner *Runner, spec FaultSpec, watchdog float64) sample {
	spec.Watchdog = watchdog
	spec.TrapNonFinite = c.TrapNonFinite
	rr, abort := runner.RunSpec(spec, c.KeepOutputs)
	if abort != nil {
		return sample{aborted: true, fault: spec.Desc(), panicMsg: abort.String()}
	}
	return sample{rr: rr}
}

// tally folds one sample into the result; key and seed are an aborted
// sample's replay address.
func (res *Result) tally(s sample, keep bool, key int, seed uint64) {
	switch {
	case s.aborted:
		res.Aborted = append(res.Aborted, AbortedSample{
			Index: key, Seed: seed, Fault: s.fault, Panic: s.panicMsg})
	case s.rr.Outcome == SDC:
		res.SDCs++
		res.RelErrs = append(res.RelErrs, s.rr.MaxRelErr)
		if keep {
			res.Outputs = append(res.Outputs, s.rr.Output)
		}
	case s.rr.Outcome == CrashDUE:
		res.CrashDUEs++
	case s.rr.Outcome == HangDUE:
		res.HangDUEs++
	default:
		res.Masked++
	}
}

// rates sets PVF and PDUE from the tallies.
func (res *Result) rates() {
	if n := res.Classified(); n > 0 {
		res.PVF = float64(res.SDCs) / float64(n)
		res.PDUE = float64(res.DUEs()) / float64(n)
	}
}

// emitCampaignEnd writes the campaign's aggregate classification into
// the event stream. The values are copied out of the finished Result —
// telemetry reads the campaign, never the reverse.
func emitCampaignEnd(res *Result) {
	if !telemetry.SinkActive() {
		return
	}
	telemetry.Emit("campaign_end",
		telemetry.KV{K: "faults", V: res.Faults},
		telemetry.KV{K: "masked", V: res.Masked},
		telemetry.KV{K: "sdcs", V: res.SDCs},
		telemetry.KV{K: "crash_dues", V: res.CrashDUEs},
		telemetry.KV{K: "hang_dues", V: res.HangDUEs},
		telemetry.KV{K: "aborted", V: len(res.Aborted)},
		telemetry.KV{K: "pvf", V: res.PVF},
		telemetry.KV{K: "pdue", V: res.PDUE},
		telemetry.KV{K: "early_stopped", V: res.EarlyStopped},
	)
}

// sample is the classified outcome of one campaign sample, including
// the aborted (panicked) case.
type sample struct {
	rr       RunResult
	aborted  bool
	fault    string
	panicMsg string
}

// sampleRecord is sample's checkpoint encoding. Floats travel as their
// IEEE bit patterns (JSON cannot represent NaN/Inf, and clamping would
// break the byte-identical resume contract).
type sampleRecord struct {
	Outcome    Outcome  `json:"o"`
	Cause      DUECause `json:"c,omitempty"`
	RelErrBits uint64   `json:"r,omitempty"`
	Applied    bool     `json:"fa,omitempty"`
	OutputBits []uint64 `json:"out,omitempty"`
	Aborted    bool     `json:"ab,omitempty"`
	Fault      string   `json:"f,omitempty"`
	Panic      string   `json:"p,omitempty"`
}

func (s sample) record() sampleRecord {
	return sampleRecord{
		Outcome:    s.rr.Outcome,
		Cause:      s.rr.Cause,
		RelErrBits: math.Float64bits(s.rr.MaxRelErr),
		Applied:    s.rr.FaultApplied,
		OutputBits: exec.MapSlice(s.rr.Output, math.Float64bits),
		Aborted:    s.aborted,
		Fault:      s.fault,
		Panic:      s.panicMsg,
	}
}

func (rec sampleRecord) sample() sample {
	return sample{
		rr: RunResult{
			Outcome:      rec.Outcome,
			Cause:        rec.Cause,
			MaxRelErr:    math.Float64frombits(rec.RelErrBits),
			FaultApplied: rec.Applied,
			Output:       exec.MapSlice(rec.OutputBits, math.Float64frombits),
		},
		aborted:  rec.Aborted,
		fault:    rec.Fault,
		panicMsg: rec.Panic,
	}
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
