package mitigate

import (
	"fmt"
	"strings"
	"testing"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/inject"
	"mixedrel/internal/kernels"
)

// mustRun runs spec through r and fails the test if the run aborts.
func mustRun(t *testing.T, r *inject.Runner, spec inject.FaultSpec, keepOutput bool) inject.RunResult {
	t.Helper()
	res, abort := r.RunSpec(spec, keepOutput)
	if abort != nil {
		t.Fatalf("%s: run aborted: %v", spec.Desc(), abort.Value)
	}
	return res
}

func TestTMRFaultFreeMatchesInner(t *testing.T) {
	g := kernels.NewGEMM(8, 1)
	tmr := NewTMR(g)
	for _, f := range fp.Formats {
		want := kernels.Golden(g, f)
		got := kernels.Golden(tmr, f)
		if len(got) != len(want) {
			t.Fatalf("%v: length %d vs %d", f, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: TMR changed fault-free output at %d", f, i)
			}
		}
	}
}

func TestTMROutvotesSingleReplicaFault(t *testing.T) {
	g := kernels.NewGEMM(6, 2)
	tmr := NewTMR(g)
	f := fp.Single
	innerOps := kernels.Profile(g, f).Total()
	// Strike an operation in the second replica: the vote must fix it.
	fault := inject.OpFault{AnyKind: true, Index: innerOps + 7,
		Bit: f.MantBits() - 1, Target: inject.TargetResult}
	res := mustRun(t, inject.NewRunner(tmr, f, "", nil), inject.FaultSpec{Op: &fault}, false)
	if !res.FaultApplied {
		t.Fatal("fault did not fire")
	}
	if res.Outcome != inject.Masked {
		t.Errorf("TMR failed to outvote a single-replica fault: %v (rel %g)",
			res.Outcome, res.MaxRelErr)
	}
}

func TestTMRCannotFixInputFault(t *testing.T) {
	g := kernels.NewGEMM(6, 2)
	tmr := NewTMR(g)
	f := fp.Single
	mf := inject.MemFault{Array: 0, Elem: 0, Bit: f.MantBits() - 1}
	res := mustRun(t, inject.NewRunner(tmr, f, "", nil), inject.FaultSpec{Mem: []inject.MemFault{mf}}, false)
	if res.Outcome != inject.SDC {
		t.Error("common-mode input corruption must defeat TMR")
	}
}

func TestTMRName(t *testing.T) {
	if NewTMR(kernels.NewGEMM(4, 1)).Name() != "MxM+TMR" {
		t.Error("TMR name wrong")
	}
}

func TestABFTCleanRun(t *testing.T) {
	g := kernels.NewGEMM(8, 3)
	a := NewABFTGEMM(g)
	for _, f := range fp.Formats {
		out := kernels.Decode(f, kernels.Golden(a, f))
		if len(out) != 8*8+1 {
			t.Fatalf("%v: output length %d", f, len(out))
		}
		if a.StatusOf(out) != ABFTClean {
			t.Errorf("%v: clean run flagged as %v", f, a.StatusOf(out))
		}
		// Data region must equal the plain GEMM result.
		want := kernels.Decode(f, kernels.Golden(g, f))
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%v: ABFT changed fault-free data at %d", f, i)
			}
		}
	}
}

func TestABFTCorrectsSingleElementFault(t *testing.T) {
	g := kernels.NewGEMM(8, 3)
	a := NewABFTGEMM(g)
	f := fp.Double
	goldenData := kernels.Decode(f, kernels.Golden(g, f))
	// Corrupt the final FMA of one C element (a high bit so it is well
	// above the checksum tolerance).
	gemmOps := kernels.Profile(g, f).Total()
	fault := inject.OpFault{AnyKind: true, Index: gemmOps - 5,
		Bit: 51, Target: inject.TargetResult}
	res := mustRun(t, inject.NewRunner(a, f, "", nil), inject.FaultSpec{Op: &fault}, true)
	if !res.FaultApplied {
		t.Fatal("fault did not fire")
	}
	if a.StatusOf(res.Output) != ABFTCorrected {
		t.Fatalf("status %v, want corrected", a.StatusOf(res.Output))
	}
	for i := range goldenData {
		if res.Output[i] != goldenData[i] {
			t.Fatalf("corrected data still wrong at %d: %v vs %v",
				i, res.Output[i], goldenData[i])
		}
	}
}

func TestABFTDetectsPersistentRowFault(t *testing.T) {
	g := kernels.NewGEMM(8, 3)
	a := NewABFTGEMM(g)
	f := fp.Double
	// A persistent fault corrupting every 8th FMA smears errors across
	// many elements: uncorrectable, but must be *detected*.
	fault := inject.OpFault{Kind: fp.OpFMA, Index: 3, Modulo: 8,
		Bit: 50, Target: inject.TargetResult}
	res := mustRun(t, inject.NewRunner(a, f, "", nil), inject.FaultSpec{Op: &fault}, true)
	if !res.FaultApplied {
		t.Fatal("fault did not fire")
	}
	if st := a.StatusOf(res.Output); st != ABFTDetected && st != ABFTCorrected {
		t.Errorf("multi-element corruption not flagged: status %v", st)
	}
}

func TestABFTToleratesLowPrecisionRounding(t *testing.T) {
	// In half precision the checksum comparison must not false-alarm on
	// summation-order rounding.
	a := NewABFTGEMM(kernels.NewGEMM(12, 5))
	out := kernels.Decode(fp.Half, kernels.Golden(a, fp.Half))
	if a.StatusOf(out) != ABFTClean {
		t.Errorf("half-precision clean run flagged as %v", a.StatusOf(out))
	}
}

func TestEvaluateTMRReducesPVF(t *testing.T) {
	g := kernels.NewGEMM(10, 7)
	f := fp.Single
	base, err := Evaluate(g, g, f, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	tmr, err := Evaluate(NewTMR(g), g, f, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(tmr.ResidualPVF < base.ResidualPVF*0.75) {
		t.Errorf("TMR residual PVF %v not well below baseline %v",
			tmr.ResidualPVF, base.ResidualPVF)
	}
	if tmr.OverheadOps < 2.9 || tmr.OverheadOps > 3.1 {
		t.Errorf("TMR overhead %v, want ~3x", tmr.OverheadOps)
	}
}

func TestEvaluateABFTReducesPVFCheaply(t *testing.T) {
	g := kernels.NewGEMM(10, 7)
	f := fp.Double
	base, err := Evaluate(g, g, f, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	abft, err := Evaluate(NewABFTGEMM(g), g, f, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(abft.ResidualPVF < base.ResidualPVF*0.75) {
		t.Errorf("ABFT residual PVF %v not well below baseline %v",
			abft.ResidualPVF, base.ResidualPVF)
	}
	if abft.OverheadOps > 2 {
		t.Errorf("ABFT overhead %v, should be far below TMR's 3x", abft.OverheadOps)
	}
	if abft.Corrected == 0 {
		t.Error("ABFT corrected nothing in 300 faults")
	}
}

func TestEvaluateCountsConsistent(t *testing.T) {
	g := kernels.NewGEMM(8, 9)
	rep, err := Evaluate(NewABFTGEMM(g), g, fp.Single, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean+rep.Corrected+rep.Detected+rep.SDC != rep.Faults {
		t.Errorf("outcome counts do not sum: %+v", rep)
	}
}

func TestEvaluateValidation(t *testing.T) {
	g := kernels.NewGEMM(4, 1)
	if _, err := Evaluate(g, g, fp.Single, 0, 1); err == nil {
		t.Error("zero faults accepted")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomeClean: "clean", OutcomeCorrected: "corrected",
		OutcomeDetected: "detected", OutcomeSDC: "SDC",
	} {
		if o.String() != want {
			t.Errorf("%d -> %q", o, o.String())
		}
	}
	if Outcome(9).String() != "outcome?" {
		t.Error("unknown outcome")
	}
}

// TestEvaluatePoolInvariant: the report depends on the seed only, not
// on the pool size the campaign's samples spread over.
func TestEvaluatePoolInvariant(t *testing.T) {
	old := exec.MaxWorkers()
	defer exec.SetMaxWorkers(old)
	g := kernels.NewGEMM(8, 9)
	for _, k := range []kernels.Kernel{g, NewTMR(g), NewABFTGEMM(g)} {
		var want *Report
		for _, pool := range []int{1, 4} {
			exec.SetMaxWorkers(pool)
			got, err := Evaluate(k, g, fp.Half, 150, 4)
			if err != nil {
				t.Fatal(err)
			}
			if want != nil && *got != *want {
				t.Errorf("%s: pool %d gives %+v, pool 1 %+v", k.Name(), pool, *got, *want)
			}
			want = got
		}
	}
}

// tripwire panics when element 0 of its first input array was
// corrupted — a stand-in for a simulator bug in one sample.
type tripwire struct{ inner kernels.Kernel }

func (w tripwire) Name() string                   { return w.inner.Name() + "-tripwire" }
func (w tripwire) Key() string                    { return "" } // not the inner kernel's artifacts
func (w tripwire) Inputs(f fp.Format) [][]fp.Bits { return w.inner.Inputs(f) }
func (w tripwire) Run(env fp.Env, in [][]fp.Bits) []fp.Bits {
	if in[0][0] != w.Inputs(env.Format())[0][0] {
		panic("tripwire: corrupted A[0]")
	}
	return w.inner.Run(env, in)
}

// TestEvaluateAbortedSampleFails: a sample the simulator aborts fails
// the evaluation with an error naming the sample, its fault and the
// panic — Evaluate neither dies with it nor counts it.
func TestEvaluateAbortedSampleFails(t *testing.T) {
	g := kernels.NewGEMM(4, 1)
	k := tripwire{g}
	const faults, seed = 100, 15
	res, err := inject.Campaign{Kernel: k, Format: fp.Single, Faults: faults, Seed: seed,
		Sites: []inject.Site{inject.SiteOperation, inject.SiteOperand, inject.SiteMemory}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aborted) != 1 {
		t.Fatalf("fixture: %d aborted samples, want 1", len(res.Aborted))
	}
	a := res.Aborted[0]
	rep, err := Evaluate(k, g, fp.Single, faults, seed)
	if err == nil {
		t.Fatalf("aborted sample counted: %+v", rep)
	}
	for _, want := range []string{fmt.Sprintf("sample %d ", a.Index), a.Fault, "tripwire: corrupted A[0]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
