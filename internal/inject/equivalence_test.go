package inject

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
)

// The compiled trace program (internal/traceir) must be behaviorally
// invisible: every run classifies identically whether results are
// served from the compiled program, from the interpreted replay trace,
// or recomputed through the softfloat machine. These tests drive the
// same fault specifications through a compiled and an interpreted
// Runner and require the journaled sample encodings — which cover
// Outcome, Cause, MaxRelErr (exact bits), FaultApplied, and the kept
// output bits — to be byte-identical.

// runnersFor builds a compiled and an interpreted runner over the same
// memoized artifacts.
func runnersFor(k kernels.Kernel, f fp.Format) (compiled, interpreted *Runner) {
	compiled = NewRunner(k, f, "", nil)
	interpreted = NewRunner(k, f, "", nil)
	interpreted.disableCompiledReplay = true
	return compiled, interpreted
}

func recordJSON(t *testing.T, rr RunResult) []byte {
	t.Helper()
	raw, err := json.Marshal(sample{rr: rr}.record())
	if err != nil {
		t.Fatalf("marshal sample record: %v", err)
	}
	return raw
}

// checkEquivalent runs spec on both runners and fails unless the
// classified samples journal to identical bytes.
func checkEquivalent(t *testing.T, compiled, interpreted *Runner, spec FaultSpec, keepOutput bool) {
	t.Helper()
	rc, ac := compiled.RunSpec(spec, keepOutput)
	ri, ai := interpreted.RunSpec(spec, keepOutput)
	if (ac == nil) != (ai == nil) {
		t.Fatalf("%s: abort mismatch: compiled %v, interpreted %v", spec.Desc(), ac, ai)
	}
	if ac != nil {
		return // both aborted; panic text may embed addresses, skip
	}
	jc, ji := recordJSON(t, rc), recordJSON(t, ri)
	if !bytes.Equal(jc, ji) {
		t.Errorf("%s (keepOutput=%v):\n  compiled:    %s\n  interpreted: %s",
			spec.Desc(), keepOutput, jc, ji)
	}
}

// randomSpec mirrors Campaign.Run's per-sample fault sampling,
// additionally cycling the behavioral-DUE machinery (watchdog, trap) so
// the compiled path is exercised with every gate armed.
func randomSpec(r *rng.Rand, counts fp.OpCounts, arrayLens []int, f fp.Format, i int) FaultSpec {
	var spec FaultSpec
	switch i % 5 {
	case 0:
		of := SampleOpFault(r, counts, f, 0, true, TargetResult)
		spec.Op = &of
	case 1:
		of := SampleOpFault(r, counts, f, 0, true, TargetOperand)
		spec.Op = &of
	case 2:
		mf := SampleMemFault(r, arrayLens, f)
		spec.Mem = []MemFault{mf}
	case 3:
		cf := SampleControlFault(r, counts)
		spec.Control = &cf
		spec.Watchdog = DefaultWatchdogFactor
	case 4:
		// Operation fault with both DUE gates armed: the compiled path
		// must decompose identically around trap/watchdog windows.
		of := SampleOpFault(r, counts, f, 0, true, TargetResult)
		spec.Op = &of
		spec.Watchdog = DefaultWatchdogFactor
		spec.TrapNonFinite = true
	}
	return spec
}

func TestCompiledReplayEquivalence(t *testing.T) {
	// Kernels chosen for batch-shape coverage: GEMM exercises GemmFMA
	// cone partitioning, CG exercises DotFMA/AXPY/GemmFMA plus scalar
	// Div, LUD exercises AXPY with scalar interleave, Micro exercises
	// pure scalar chains (one operand-free run region each), Hotspot
	// exercises long scalar stencils whose cells are closed output tiles.
	cases := []struct {
		name string
		k    kernels.Kernel
	}{
		{"gemm", kernels.NewGEMM(5, 1)},
		{"cg", kernels.NewCG(5, 3, 4)},
		{"lud", kernels.NewLUD(5, 2)},
		{"micro-fma", kernels.NewMicro(kernels.MicroFMA, 2, 12, 3)},
		{"micro-add", kernels.NewMicro(kernels.MicroADD, 1, 16, 7)},
		{"hotspot", kernels.NewHotspot(4, 2, 1)},
	}
	for _, tc := range cases {
		for _, f := range []fp.Format{fp.Single, fp.Half} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, f), func(t *testing.T) {
				compiled, interpreted := runnersFor(tc.k, f)
				if compiled.art.Prog() == nil {
					t.Fatalf("no compiled program for %s/%v", tc.name, f)
				}
				counts := compiled.Counts()
				lens := compiled.ArrayLens()
				r := rng.New(0xE9 + uint64(f))
				for i := 0; i < 60; i++ {
					checkEquivalent(t, compiled, interpreted,
						randomSpec(r, counts, lens, f, i), i%7 == 0)
				}
				// Boundary op faults: first and last dynamic operation.
				total := counts.Total()
				for _, idx := range []uint64{0, total - 1} {
					of := OpFault{AnyKind: true, Index: idx, Bit: f.MantBits() - 1, Target: TargetResult}
					checkEquivalent(t, compiled, interpreted, FaultSpec{Op: &of}, true)
				}
			})
		}
	}
}

// TestCompiledReplayEquivalenceEveryIndex sweeps every dynamic
// operation index of a small kernel under operand and result faults, so
// the struck position crosses every region boundary of the compiled
// program at least once.
func TestCompiledReplayEquivalenceEveryIndex(t *testing.T) {
	k := kernels.NewGEMM(3, 6) // 27 FMAs: one compiled gemm region
	f := fp.Single
	compiled, interpreted := runnersFor(k, f)
	total := compiled.Counts().Total()
	for idx := uint64(0); idx < total; idx++ {
		for _, target := range []Target{TargetResult, TargetOperand} {
			of := OpFault{AnyKind: true, Index: idx, Bit: int(idx) % f.Width(), Target: target, OperandIdx: int(idx) % 3}
			checkEquivalent(t, compiled, interpreted, FaultSpec{Op: &of}, false)
		}
	}
}

// FuzzCompiledReplayEquivalence fuzzes fault placement across kernels,
// formats, sites, and DUE gating, asserting compiled and interpreted
// replay journal identically.
func FuzzCompiledReplayEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), false, false)
	f.Add(uint64(7), uint8(1), uint8(2), true, false)
	f.Add(uint64(42), uint8(2), uint8(3), false, true)
	f.Add(uint64(1<<40), uint8(3), uint8(4), true, true)
	f.Fuzz(func(t *testing.T, seed uint64, kSel, siteSel uint8, trap, watchdog bool) {
		var k kernels.Kernel
		switch kSel % 4 {
		case 0:
			k = kernels.NewGEMM(4, 1)
		case 1:
			k = kernels.NewCG(4, 2, 4)
		case 2:
			k = kernels.NewLUD(4, 2)
		case 3:
			k = kernels.NewMicro(kernels.MicroFMA, 1, 10, 3)
		}
		format := fp.Single
		if kSel%8 >= 4 {
			format = fp.Half
		}
		compiled, interpreted := runnersFor(k, format)
		counts := compiled.Counts()
		r := rng.New(seed)
		var spec FaultSpec
		switch siteSel % 4 {
		case 0:
			of := SampleOpFault(r, counts, format, 0, true, TargetResult)
			spec.Op = &of
		case 1:
			of := SampleOpFault(r, counts, format, 0, true, TargetOperand)
			spec.Op = &of
		case 2:
			mf := SampleMemFault(r, compiled.ArrayLens(), format)
			spec.Mem = []MemFault{mf}
		case 3:
			cf := SampleControlFault(r, counts)
			spec.Control = &cf
		}
		spec.TrapNonFinite = trap
		if watchdog || spec.Control != nil {
			spec.Watchdog = DefaultWatchdogFactor
		}
		checkEquivalent(t, compiled, interpreted, spec, seed%3 == 0)
	})
}

// TestCampaignByteIdentityCompiledVsInterpreted runs whole campaigns
// both ways and requires the marshaled results — counts, PVF/PDUE,
// every relative error, every kept output — to be byte-identical.
func TestCampaignByteIdentityCompiledVsInterpreted(t *testing.T) {
	cases := []Campaign{
		{
			Kernel: kernels.NewGEMM(6, 2), Format: fp.Single,
			Faults: 150, Seed: 99,
			Sites:         []Site{SiteOperation, SiteOperand, SiteMemory, SiteControl},
			TrapNonFinite: true, KeepOutputs: true,
		},
		{
			Kernel: kernels.NewLUD(6, 5), Format: fp.Half,
			Faults: 100, Seed: 7, Workers: 4,
			Sites: []Site{SiteOperand, SiteMemory},
		},
		{
			// Tiled: the compiled side skips the home boxes a fault
			// cannot reach.
			Kernel: kernels.NewLavaMD(2, 2, 3), Format: fp.Double,
			Faults: 120, Seed: 23, Workers: 2,
			Sites:         []Site{SiteOperation, SiteOperand, SiteMemory, SiteControl},
			TrapNonFinite: true, KeepOutputs: true,
		},
		{
			// Closed tiles: the compiled side skips the cells a fault
			// cannot reach, under memory faults too.
			Kernel: kernels.NewHotspot(8, 4, 5), Format: fp.Single,
			Faults: 150, Seed: 31, Workers: 2,
			Sites:         []Site{SiteOperand, SiteMemory, SiteControl},
			TrapNonFinite: true, KeepOutputs: true,
		},
		{
			// Layer stages: the compiled side skips the stages before
			// a fault and those its corruption does not reach, and
			// writes their golden pooled tensors.
			Kernel: kernels.NewYOLO(1006), Format: fp.Half,
			Faults: 100, Seed: 41, Workers: 2,
			Sites:         []Site{SiteOperation, SiteOperand, SiteMemory, SiteControl},
			TrapNonFinite: true, KeepOutputs: true,
		},
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			compiled := c
			res, err := compiled.Run()
			if err != nil {
				t.Fatal(err)
			}
			_, interpreted := runnersFor(c.Kernel, c.Format)
			resI, err := c.runOn(interpreted)
			if err != nil {
				t.Fatal(err)
			}
			jc, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			ji, err := json.Marshal(resI)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jc, ji) {
				t.Errorf("campaign tables differ:\n  compiled:    %.400s\n  interpreted: %.400s", jc, ji)
			}
		})
	}
}
