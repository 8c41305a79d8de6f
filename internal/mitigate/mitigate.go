// Package mitigate implements and evaluates the two classic soft-error
// mitigations the paper's research line applies to accelerators (cf. its
// reference [5], "Evaluation and mitigation of radiation-induced soft
// errors in GPUs"):
//
//   - TMR: triple modular redundancy — run the kernel three times and
//     take the bitwise majority of each output word. Corrects any fault
//     confined to one replica at ~3x compute cost; cannot correct
//     common-mode corruption of the shared inputs (memory faults).
//   - ABFT: algorithm-based fault tolerance for GEMM (Huang & Abraham
//     checksums) — maintain row/column checksums of C computed
//     independently from A and B, locate a single corrupted element at
//     the intersection of the mismatching row and column, and correct
//     it from the checksum. Costs O(n^2) extra work on an O(n^3)
//     kernel.
//
// Both mitigations are ordinary Kernels, so every campaign in the
// library (beam, injection, TRE, MEBF) runs on mitigated workloads
// unchanged. Evaluate classifies outcomes into corrected / detected /
// silent, quantifying the FIT reduction each scheme buys per unit of
// overhead.
package mitigate

import (
	"fmt"
	"math"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/inject"
	"mixedrel/internal/kernels"
)

// TMR wraps any kernel with triple modular redundancy and bitwise
// majority voting. A transient fault striking one of the three
// executions is outvoted; faults in the shared inputs hit all replicas
// and pass through.
type TMR struct {
	Inner kernels.Kernel
}

// NewTMR wraps inner in triple modular redundancy.
func NewTMR(inner kernels.Kernel) *TMR { return &TMR{Inner: inner} }

// Name implements Kernel.
func (t *TMR) Name() string { return t.Inner.Name() + "+TMR" }

// Key implements Kernel: derived from the inner kernel's key, so an
// unkeyed inner kernel opts the TMR wrapper out of caching too.
func (t *TMR) Key() string {
	if k := t.Inner.Key(); k != "" {
		return "tmr(" + k + ")"
	}
	return ""
}

// Inputs implements Kernel: the replicas share one input image, exactly
// like a TMR'd kernel sharing device memory.
func (t *TMR) Inputs(f fp.Format) [][]fp.Bits { return t.Inner.Inputs(f) }

// Run implements Kernel: three executions, bitwise majority.
func (t *TMR) Run(env fp.Env, in [][]fp.Bits) []fp.Bits {
	a := t.Inner.Run(env, in)
	b := t.Inner.Run(env, in)
	c := t.Inner.Run(env, in)
	out := make([]fp.Bits, len(a))
	for i := range out {
		out[i] = fp.Majority(a[i], b[i], c[i])
	}
	return out
}

// ABFTGEMM wraps a GEMM with Huang–Abraham checksum protection:
// detection and single-element correction of errors in C. The output is
// the (corrected) n x n product followed by one status word (see
// ABFTStatus).
type ABFTGEMM struct {
	G *kernels.GEMM
}

// abftTolUlps is the checksum comparison tolerance in units of
// n * MachineEpsilon * |checksum| (different summation orders of the
// same values differ by rounding).
const abftTolUlps = 8

// ABFTStatus is the trailing status word of an ABFTGEMM output.
type ABFTStatus int

const (
	// ABFTClean: checksums verified, no error found.
	ABFTClean ABFTStatus = iota
	// ABFTCorrected: a single element mismatch was located and fixed.
	ABFTCorrected
	// ABFTDetected: checksums mismatch in a pattern the scheme cannot
	// correct (multiple rows/columns) — a detected, uncorrected error.
	ABFTDetected
)

// NewABFTGEMM wraps g with checksum protection.
func NewABFTGEMM(g *kernels.GEMM) *ABFTGEMM { return &ABFTGEMM{G: g} }

// Name implements Kernel.
func (a *ABFTGEMM) Name() string { return a.G.Name() + "+ABFT" }

// Key implements Kernel.
func (a *ABFTGEMM) Key() string {
	if k := a.G.Key(); k != "" {
		return "abft(" + k + ")"
	}
	return ""
}

// Inputs implements Kernel.
func (a *ABFTGEMM) Inputs(f fp.Format) [][]fp.Bits { return a.G.Inputs(f) }

// StatusOf extracts the status word from a decoded ABFTGEMM output.
func (a *ABFTGEMM) StatusOf(out []float64) ABFTStatus {
	return ABFTStatus(int(out[len(out)-1]))
}

// Run implements Kernel: multiply, verify checksums, correct or flag.
func (a *ABFTGEMM) Run(env fp.Env, in [][]fp.Bits) []fp.Bits {
	n := a.G.N()
	c := a.G.Run(env, in)
	aM, bM := in[0], in[1]

	// Independent checksums: u = A (B 1), v = (1^T A) B.
	zero := env.FromFloat64(0)
	bRow := make([]fp.Bits, n) // B * ones: per-row sums of B
	for j := 0; j < n; j++ {
		s := zero
		for k := 0; k < n; k++ {
			s = env.Add(s, bM[j*n+k])
		}
		bRow[j] = s
	}
	u := make([]fp.Bits, n)
	for i := 0; i < n; i++ {
		s := zero
		for k := 0; k < n; k++ {
			s = env.FMA(aM[i*n+k], bRow[k], s)
		}
		u[i] = s
	}
	aCol := make([]fp.Bits, n) // ones^T * A: per-column sums of A
	for k := 0; k < n; k++ {
		s := zero
		for i := 0; i < n; i++ {
			s = env.Add(s, aM[i*n+k])
		}
		aCol[k] = s
	}
	v := make([]fp.Bits, n)
	for j := 0; j < n; j++ {
		s := zero
		for k := 0; k < n; k++ {
			s = env.FMA(aCol[k], bM[k*n+j], s)
		}
		v[j] = s
	}

	// Compare against row/column sums of C with a rounding-aware
	// tolerance.
	f := env.Format()
	eps := f.MachineEpsilon()
	badRows, badCols := []int{}, []int{}
	for i := 0; i < n; i++ {
		s := zero
		for j := 0; j < n; j++ {
			s = env.Add(s, c[i*n+j])
		}
		want := f.ToFloat64(u[i])
		got := f.ToFloat64(s)
		tol := abftTolUlps * float64(n) * eps * (1 + math.Abs(want))
		if math.IsNaN(got) || math.Abs(got-want) > tol {
			badRows = append(badRows, i)

		}
	}
	for j := 0; j < n; j++ {
		s := zero
		for i := 0; i < n; i++ {
			s = env.Add(s, c[i*n+j])
		}
		want := f.ToFloat64(v[j])
		got := f.ToFloat64(s)
		tol := abftTolUlps * float64(n) * eps * (1 + math.Abs(want))
		if math.IsNaN(got) || math.Abs(got-want) > tol {
			badCols = append(badCols, j)
		}
	}

	status := ABFTClean
	switch {
	case len(badRows) == 0 && len(badCols) == 0:
		// Clean.
	case len(badRows) == 1 && len(badCols) == 1:
		// Single-element error located at the intersection. Recompute
		// just that element (the standard recovery: checksum-based
		// reconstruction carries summation rounding, recomputation is
		// exact), O(n) work.
		r, cc := badRows[0], badCols[0]
		s := zero
		for k := 0; k < n; k++ {
			s = env.FMA(aM[r*n+k], bM[k*n+cc], s)
		}
		c[r*n+cc] = s
		status = ABFTCorrected
	default:
		status = ABFTDetected
	}

	out := make([]fp.Bits, 0, n*n+1)
	out = append(out, c...)
	out = append(out, env.FromFloat64(float64(status)))
	return out
}

// Outcome classifies one faulty execution of a mitigated kernel against
// the unmitigated golden product.
type Outcome int

const (
	// OutcomeClean: output matches golden (fault masked or corrected
	// silently by voting).
	OutcomeClean Outcome = iota
	// OutcomeCorrected: output matches golden and the scheme reported a
	// correction.
	OutcomeCorrected
	// OutcomeDetected: output wrong but the scheme flagged it (a DUE in
	// system terms — the run can be retried).
	OutcomeDetected
	// OutcomeSDC: output wrong and unflagged — a true silent data
	// corruption surviving the mitigation.
	OutcomeSDC
)

func (o Outcome) String() string {
	switch o {
	case OutcomeClean:
		return "clean"
	case OutcomeCorrected:
		return "corrected"
	case OutcomeDetected:
		return "detected"
	case OutcomeSDC:
		return "SDC"
	}
	return "outcome?"
}

// Report summarizes a mitigation evaluation campaign.
type Report struct {
	Faults                          int
	Clean, Corrected, Detected, SDC int
	// ResidualPVF is P(silent corruption | fault) with the mitigation
	// in place.
	ResidualPVF float64
	// OverheadOps is the mitigated/unmitigated dynamic operation ratio.
	OverheadOps float64
}

// Evaluate injects faults (uniformly over operation, operand and memory
// sites) into a mitigated GEMM and classifies every outcome. baseline
// must be the unprotected kernel the mitigation wraps; its golden output
// defines correctness of the data region. The faults are one
// inject.Campaign; a sample the simulator aborted fails the evaluation.
func Evaluate(mitigated, baseline kernels.Kernel, f fp.Format, faults int, seed uint64) (*Report, error) {
	mit := exec.Artifact(mitigated, f, "", nil)
	base := exec.Artifact(baseline, f, "", nil)
	goldenBase, goldenMit := base.Golden(), mit.Golden()
	if len(goldenMit) < len(goldenBase) {
		return nil, fmt.Errorf("mitigate: mitigated output shorter than baseline")
	}
	res, err := inject.Campaign{
		Kernel:      mitigated,
		Format:      f,
		Faults:      faults,
		Seed:        seed,
		Sites:       []inject.Site{inject.SiteOperation, inject.SiteOperand, inject.SiteMemory},
		KeepOutputs: true,
	}.Run()
	if err != nil {
		return nil, fmt.Errorf("mitigate: %w", err)
	}
	if len(res.Aborted) > 0 {
		a := res.Aborted[0]
		return nil, fmt.Errorf("mitigate: sample %d (%s) aborted: %s", a.Index, a.Fault, a.Panic)
	}

	abft, isABFT := mitigated.(*ABFTGEMM)
	rep := &Report{
		Faults:      faults,
		OverheadOps: float64(mit.Counts.Total()) / float64(base.Counts.Total()),
	}
	// classify judges correctness on the data region only (memory faults
	// legitimately change the correct answer for both mitigated and
	// unmitigated runs identically, so compare to the mitigated golden's
	// data region). A masked sample's output decodes equal to the
	// golden output, so it classifies as the golden output does.
	classify := func(out []float64, n int) {
		dataOK := true
		for j := range goldenBase {
			if out[j] != goldenMit[j] {
				dataOK = false
				break
			}
		}
		status := ABFTClean
		if isABFT {
			status = abft.StatusOf(out)
		}
		switch {
		case dataOK && status == ABFTCorrected:
			rep.Corrected += n
		case dataOK:
			rep.Clean += n
		case status != ABFTClean:
			rep.Detected += n
		default:
			rep.SDC += n
		}
	}
	classify(goldenMit, res.Masked)
	for _, out := range res.Outputs {
		classify(out, 1)
	}
	rep.ResidualPVF = float64(rep.SDC) / float64(rep.Faults)
	return rep, nil
}
