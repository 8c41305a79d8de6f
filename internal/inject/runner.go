package inject

import (
	"fmt"
	"sync"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
)

// Runner executes faulty runs of one (kernel, format, wrap)
// configuration against memoized fault-free artifacts. It is the one
// way to run a fault, for campaigns and single runs alike:
//
//   - the golden output and operation profile come from the process
//     cache (exec.Artifact), so fault-free kernel executions happen once
//     per configuration instead of once per run;
//   - inputs are copied from the cached pristine encoding instead of
//     re-encoded from float64 on every run;
//   - the injecting environment, input buffers, and the decode buffer
//     live in a per-worker scratch pool, so steady-state runs allocate
//     almost nothing.
//
// Every op fault of a run, however many, is one schedule in one
// injecting environment, run by RunSpec.
//
// A Runner is safe for concurrent use.
type Runner struct {
	kernel  kernels.Kernel
	format  fp.Format
	wrap    func(fp.Env) fp.Env
	art     *exec.Artifacts
	scratch sync.Pool // *scratch
	// goldenNaN records whether the golden output contains a NaN. When
	// it does not, bit-identical output implies float-identical output,
	// so a run can be classified Masked by comparing raw bits without
	// decoding (NaN golden elements compare unequal to themselves under
	// float comparison, so they never classify as Masked and the bits
	// shortcut would disagree).
	goldenNaN bool

	// disableCompiledReplay keeps runs off the compiled trace program,
	// restricting the injecting environments to interpreted execution
	// (replay-trace induction plus inner-machine recompute): the
	// reference the equivalence tests compare the compiled path against.
	disableCompiledReplay bool
}

// scratch is one worker's reusable run state.
type scratch struct {
	in      [][]fp.Bits
	dirty   bool // in was corrupted by memory faults and needs restoring
	out     []float64
	outBits []fp.Bits // reused output buffer for OutputKernel workloads
	ienv    *Env
	env     fp.Env // wrap(ienv), built once (wraps are stateless across runs)
}

// NewRunner builds a runner for the configuration, computing (or
// fetching from the process cache, when wrapKey identifies wrap) its
// fault-free artifacts.
func NewRunner(k kernels.Kernel, f fp.Format, wrapKey string, wrap func(fp.Env) fp.Env) *Runner {
	r := &Runner{kernel: k, format: f, wrap: wrap, art: exec.Artifact(k, f, wrapKey, wrap)}
	for _, v := range r.art.Golden() {
		if v != v {
			r.goldenNaN = true
			break
		}
	}
	return r
}

// Counts returns the configuration's dynamic operation profile.
func (r *Runner) Counts() fp.OpCounts { return r.art.Counts }

// Golden returns the decoded fault-free output. Shared; do not mutate.
func (r *Runner) Golden() []float64 { return r.art.Golden() }

// GoldenBits returns the raw fault-free output. Shared; do not mutate.
func (r *Runner) GoldenBits() []fp.Bits { return r.art.GoldenBits() }

// ArrayLens returns the input array lengths for memory-fault sampling.
// Shared; do not mutate.
func (r *Runner) ArrayLens() []int { return r.art.ArrayLens() }

func (r *Runner) get() *scratch {
	if sc, ok := r.scratch.Get().(*scratch); ok {
		return sc
	}
	sc := &scratch{ienv: NewEnv(fp.NewMachine(r.format))}
	sc.env = fp.Env(sc.ienv)
	if r.wrap != nil {
		sc.env = r.wrap(sc.env)
	}
	return sc
}

// RunSpec executes one faulty run under the full fault specification —
// operation/memory faults plus the behavioral-DUE machinery (control
// fault, watchdog, FP trap) — and classifies the outcome. Emulated
// crashes and hangs return as CrashDUE/HangDUE results; any other panic
// escaping the kernel (a simulator bug in this sample) is recovered by
// exec.Guard and returned as a non-nil *exec.Abort so campaigns can
// record the sample as aborted and continue.
func (r *Runner) RunSpec(spec FaultSpec, keepOutput bool) (RunResult, *exec.Abort) {
	sc := r.get()
	defer r.scratch.Put(sc)

	r.prepare(sc, spec.Mem)
	sc.ienv.resetSpec(spec, r.art.Counts.Total(), sc.in)
	if len(spec.Mem) == 0 {
		// Inputs are pristine, so the fault-free result trace is valid
		// until the operation fault strikes.
		sc.ienv.replay = r.art.Results()
	} else {
		sc.ienv.replay = nil
	}
	// The compiled program's compare-serving is exact even under
	// corrupted inputs, so it is installed unconditionally. Both the
	// trace and the program are shared across all workers' environments
	// (immutable slices, per-run state in the env's cursor) — samples
	// never copy them.
	sc.ienv.prog = nil
	if !r.disableCompiledReplay {
		sc.ienv.prog = r.art.Prog()
		r.installTiles(sc)
	}
	var outBits []fp.Bits
	abort := exec.Guard(func() { outBits = r.runKernel(sc, sc.env) })
	if abort != nil {
		// The run died mid-kernel; nothing certain is known about the
		// scratch buffers, so restore the inputs before the next run.
		sc.dirty = true
		if sig, ok := abort.Value.(dueSignal); ok {
			// An emulated crash/hang is a classified outcome, not a
			// simulator failure.
			flushRunStats(sc.ienv, sig.outcome, sig.cause, false)
			return RunResult{Outcome: sig.outcome, Cause: sig.cause, FaultApplied: true}, nil
		}
		flushRunStats(sc.ienv, 0, CauseNone, true)
		return RunResult{}, abort
	}
	res := r.classify(sc, outBits, keepOutput)
	res.FaultApplied = len(spec.Mem) > 0 || sc.ienv.Applied() > 0
	flushRunStats(sc.ienv, res.Outcome, CauseNone, false)
	return res, nil
}

// installTiles lets the run skip the output tiles no fault can reach
// (Env.Tile): it installs the tile table and fills the output buffer
// with the golden output, which the skipped tiles keep. Only an
// OutputKernel, which writes into that buffer, has a tile table.
func (r *Runner) installTiles(sc *scratch) {
	tiles := r.art.Tiles()
	if tiles == nil {
		return
	}
	sc.ienv.tiles = tiles
	sc.outBits = append(sc.outBits[:0], r.art.GoldenBits()...)
}

// prepare readies sc's inputs for a run with the given memory faults:
// the pristine encoding, restored only after a run that may have
// corrupted it (the Kernel contract forbids Run from mutating its
// inputs), with the faults' bits flipped.
func (r *Runner) prepare(sc *scratch, mem []MemFault) {
	if sc.in == nil || sc.dirty {
		sc.in = r.art.CopyInputs(sc.in)
	}
	sc.dirty = len(mem) > 0
	for _, mf := range mem {
		if len(sc.in) == 0 {
			break
		}
		arr := sc.in[mf.Array%len(sc.in)]
		if len(arr) == 0 {
			continue
		}
		i := mf.Elem % len(arr)
		arr[i] = FlipBits(r.format, arr[i], mf.Bit, mf.Width)
	}
}

// runKernel runs the kernel on sc's inputs under env, into sc's output
// buffer when the kernel can write into one.
func (r *Runner) runKernel(sc *scratch, env fp.Env) []fp.Bits {
	if ok, isOut := r.kernel.(kernels.OutputKernel); isOut {
		sc.outBits = ok.RunInto(env, sc.in, sc.outBits)
		return sc.outBits
	}
	return r.kernel.Run(env, sc.in)
}

// classify compares a finished run's output with the golden output:
// Masked when every element decodes equal, SDC with the worst
// element-wise relative error otherwise. keepOutput returns the decoded
// output.
func (r *Runner) classify(sc *scratch, outBits []fp.Bits, keepOutput bool) RunResult {
	f := r.format
	golden := r.art.Golden()
	if len(outBits) != len(golden) {
		panic(fmt.Sprintf("inject: output length %d vs golden %d", len(outBits), len(golden)))
	}
	var res RunResult
	var worst float64
	same := true
	if !r.goldenNaN && !keepOutput {
		// Bit-identical elements are float-identical (no NaN golden),
		// so only the differing bits decode — for masked runs, nothing
		// does. Bits that differ may still decode equal (+0 vs -0),
		// hence the float re-check before counting an element as
		// corrupted.
		gbits := r.art.GoldenBits()
		for i, ob := range outBits {
			if ob == gbits[i] {
				continue
			}
			if v := f.ToFloat64(ob); v != golden[i] {
				same = false
				if e := fp.RelErr(golden[i], v); e > worst {
					worst = e
				}
			}
		}
	} else {
		if cap(sc.out) < len(outBits) {
			sc.out = make([]float64, len(outBits))
		}
		out := sc.out[:len(outBits)]
		fp.ToFloat64N(f, out, outBits)
		for i := range out {
			if out[i] != golden[i] {
				same = false
				if e := fp.RelErr(golden[i], out[i]); e > worst {
					worst = e
				}
			}
		}
		if keepOutput {
			res.Output = append([]float64(nil), out...)
		}
	}
	if same {
		res.Outcome = Masked
	} else {
		res.Outcome = SDC
		res.MaxRelErr = worst
	}
	return res
}
