package inject

import (
	"math"
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
)

func goldenFor(k kernels.Kernel, f fp.Format) []float64 {
	return kernels.Decode(f, kernels.Golden(k, f))
}

func TestEnvNoFaultWhenIndexOutOfRange(t *testing.T) {
	k := kernels.NewGEMM(6, 1)
	f := fp.Single
	fault := OpFault{AnyKind: true, Index: 1 << 40, Bit: 3, Target: TargetResult}
	res := NewRunner(k, f, "", nil).Run([]OpFault{fault}, nil, false)
	if res.Outcome != Masked || res.FaultApplied {
		t.Errorf("out-of-range fault: outcome %v, applied %v", res.Outcome, res.FaultApplied)
	}
}

func TestResultFaultCausesSDC(t *testing.T) {
	k := kernels.NewGEMM(6, 1)
	for _, f := range fp.Formats {
		// Flip the top mantissa bit of the final FMA of the last output
		// element: guaranteed visible.
		total := kernels.Profile(k, f).Total()
		fault := OpFault{AnyKind: true, Index: total - 1, Bit: f.MantBits() - 1, Target: TargetResult}
		res := NewRunner(k, f, "", nil).Run([]OpFault{fault}, nil, false)
		if !res.FaultApplied {
			t.Fatalf("%v: fault did not fire", f)
		}
		if res.Outcome != SDC {
			t.Errorf("%v: visible corruption classified as %v", f, res.Outcome)
		}
		if res.MaxRelErr <= 0 {
			t.Errorf("%v: SDC with zero relative error", f)
		}
	}
}

func TestOperandFaultFires(t *testing.T) {
	k := kernels.NewMicro(kernels.MicroMUL, 1, 10, 2)
	f := fp.Double
	fault := OpFault{AnyKind: true, Index: 0, Bit: 40, Target: TargetOperand, OperandIdx: 0}
	res := NewRunner(k, f, "", nil).Run([]OpFault{fault}, nil, false)
	if !res.FaultApplied {
		t.Fatal("operand fault did not fire")
	}
	if res.Outcome != SDC {
		t.Errorf("operand corruption of a MUL chain should reach the output, got %v", res.Outcome)
	}
}

func TestSignBitFlipExactlyDoublesOrNegates(t *testing.T) {
	// Flipping the sign bit of the last operation's result must negate
	// the output element exactly.
	k := kernels.NewMicro(kernels.MicroMUL, 1, 4, 3)
	f := fp.Double
	golden := goldenFor(k, f)
	total := kernels.Profile(k, f).Total()
	fault := OpFault{AnyKind: true, Index: total - 1, Bit: f.Width() - 1, Target: TargetResult}
	res := NewRunner(k, f, "", nil).Run([]OpFault{fault}, nil, true)
	if res.Outcome != SDC {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.Output[0] != -golden[0] {
		t.Errorf("sign flip gave %v, want %v", res.Output[0], -golden[0])
	}
	if math.Abs(res.MaxRelErr-2) > 1e-12 {
		t.Errorf("sign flip rel err %v, want 2", res.MaxRelErr)
	}
}

func TestPersistentFaultHitsManyOps(t *testing.T) {
	k := kernels.NewMicro(kernels.MicroMUL, 4, 50, 4)
	f := fp.Single
	m := fp.NewMachine(f)
	fault := OpFault{Kind: fp.OpMul, Index: 0, Modulo: 4, Bit: 2, Target: TargetResult}
	env := NewEnv(m, fault)
	k.Run(env, k.Inputs(f))
	total := kernels.Profile(k, f).ByOp[fp.OpMul]
	if env.Applied() != total/4 {
		t.Errorf("persistent fault applied %d times, want %d", env.Applied(), total/4)
	}
}

func TestMemFaultSDC(t *testing.T) {
	k := kernels.NewGEMM(6, 5)
	f := fp.Single
	// Flip the top mantissa bit of A[0][0]: C row 0 must change.
	mf := MemFault{Array: 0, Elem: 0, Bit: f.MantBits() - 1}
	res := NewRunner(k, f, "", nil).Run(nil, []MemFault{mf}, false)
	if res.Outcome != SDC {
		t.Errorf("input corruption classified as %v", res.Outcome)
	}
}

func TestMemFaultIndicesWrap(t *testing.T) {
	k := kernels.NewGEMM(4, 5)
	f := fp.Half
	// Out-of-range array/element/bit indices must wrap, not panic.
	mf := MemFault{Array: 99, Elem: 1 << 20, Bit: 999}
	res := NewRunner(k, f, "", nil).Run(nil, []MemFault{mf}, false)
	_ = res // outcome may be either; just must not panic
}

func TestEnvCountersPerKind(t *testing.T) {
	m := fp.NewMachine(fp.Double)
	// Strike the second MUL only.
	env := NewEnv(m, OpFault{Kind: fp.OpMul, Index: 1, Bit: 0, Target: TargetResult})
	one := m.FromFloat64(1)
	env.Add(one, one) // not a MUL: no hit
	env.Mul(one, one) // MUL #0: no hit
	if env.Applied() != 0 {
		t.Fatal("fault fired early")
	}
	env.Mul(one, one) // MUL #1: hit
	if env.Applied() != 1 {
		t.Fatal("fault did not fire on MUL #1")
	}
	env.Mul(one, one) // MUL #2: no hit (transient)
	if env.Applied() != 1 {
		t.Fatal("transient fault fired more than once")
	}
}

func TestSampleOpFaultBounds(t *testing.T) {
	counts := fp.OpCounts{}
	counts.ByOp[fp.OpMul] = 100
	counts.ByOp[fp.OpAdd] = 50
	r := rng.New(1)
	for i := 0; i < 500; i++ {
		f := SampleOpFault(r, counts, fp.Half, fp.OpMul, false, TargetResult)
		if f.Index >= 100 {
			t.Fatalf("kind-scoped index %d out of range", f.Index)
		}
		if f.Bit < 0 || f.Bit >= 16 {
			t.Fatalf("bit %d out of range for half", f.Bit)
		}
		g := SampleOpFault(r, counts, fp.Double, 0, true, TargetOperand)
		if g.Index >= 150 {
			t.Fatalf("any-kind index %d out of range", g.Index)
		}
	}
}

func TestSampleOpFaultPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sampling from zero ops did not panic")
		}
	}()
	SampleOpFault(rng.New(1), fp.OpCounts{}, fp.Half, fp.OpMul, false, TargetResult)
}

func TestSampleMemFaultDistribution(t *testing.T) {
	r := rng.New(2)
	lens := []int{100, 300}
	counts := [2]int{}
	for i := 0; i < 4000; i++ {
		mf := SampleMemFault(r, lens, fp.Single)
		if mf.Array < 0 || mf.Array > 1 || mf.Elem >= lens[mf.Array] {
			t.Fatalf("bad sample %+v", mf)
		}
		counts[mf.Array]++
	}
	// Array 1 holds 3x the elements: expect ~3x the strikes.
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.4 || ratio > 3.7 {
		t.Errorf("strike ratio %v, want ~3", ratio)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	c := Campaign{Kernel: kernels.NewGEMM(8, 3), Format: fp.Single, Faults: 100, Seed: 7}
	a, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.SDCs != b.SDCs || a.PVF != b.PVF {
		t.Errorf("campaign not deterministic: %d vs %d SDCs", a.SDCs, b.SDCs)
	}
}

func TestCampaignCounts(t *testing.T) {
	c := Campaign{Kernel: kernels.NewGEMM(8, 3), Format: fp.Half, Faults: 200, Seed: 9,
		Sites: []Site{SiteOperation}}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SDCs+res.Masked != res.Faults {
		t.Errorf("counts do not add up: %d + %d != %d", res.SDCs, res.Masked, res.Faults)
	}
	if len(res.RelErrs) != res.SDCs {
		t.Errorf("one rel-err per SDC: %d vs %d", len(res.RelErrs), res.SDCs)
	}
	if res.PVF < 0 || res.PVF > 1 {
		t.Errorf("PVF %v out of range", res.PVF)
	}
	// GEMM without masking operations: most result faults propagate.
	if res.PVF < 0.5 {
		t.Errorf("GEMM result-fault PVF %v suspiciously low", res.PVF)
	}
}

func TestCampaignKeepOutputs(t *testing.T) {
	c := Campaign{Kernel: kernels.NewGEMM(6, 3), Format: fp.Single, Faults: 50, Seed: 11,
		KeepOutputs: true}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != res.SDCs {
		t.Errorf("outputs %d != SDCs %d", len(res.Outputs), res.SDCs)
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := (Campaign{Format: fp.Single, Faults: 10}).Run(); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := (Campaign{Kernel: kernels.NewGEMM(4, 1), Faults: 0}).Run(); err == nil {
		t.Error("zero faults accepted")
	}
}

// Cross-precision criticality property, the paper's central claim about
// fault impact (Sections 4.1, 6.3): at a 1% tolerated relative error,
// double-precision masks a larger share of its SDCs than half.
func TestDoubleFaultsMoreTolerableThanHalf(t *testing.T) {
	tolerableShare := func(f fp.Format) float64 {
		c := Campaign{Kernel: kernels.NewGEMM(12, 17), Format: f, Faults: 600, Seed: 13,
			Sites: []Site{SiteOperand, SiteMemory}}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		tol := 0
		for _, e := range res.RelErrs {
			if e <= 0.01 {
				tol++
			}
		}
		if res.SDCs == 0 {
			t.Fatal("no SDCs observed")
		}
		return float64(tol) / float64(res.SDCs)
	}
	d, h := tolerableShare(fp.Double), tolerableShare(fp.Half)
	if !(d > h) {
		t.Errorf("tolerable share double=%v <= half=%v; expected double to tolerate more", d, h)
	}
}

func TestStrings(t *testing.T) {
	if TargetResult.String() != "result" || TargetOperand.String() != "operand" ||
		Target(9).String() != "target?" {
		t.Error("Target strings wrong")
	}
	if SiteOperation.String() != "operation" || SiteOperand.String() != "operand" ||
		SiteMemory.String() != "memory" || Site(9).String() != "site?" {
		t.Error("Site strings wrong")
	}
	if Masked.String() != "masked" || SDC.String() != "SDC" || Outcome(9).String() != "outcome?" {
		t.Error("Outcome strings wrong")
	}
}

func TestIntStateFault(t *testing.T) {
	// LavaMD calls exp; with a software exp installed, an int-state
	// fault must fire and produce a large (power-of-two-scaled) error.
	k := kernels.NewLavaMD(2, 3, 7)
	f := fp.Double
	wrap := fp.WrapExp(fp.ExpShape{Terms: 13, Squarings: 3, IntSites: 2})
	counts := kernels.ProfileWith(k, f, wrap)
	if counts.IntSites == 0 {
		t.Fatal("no int sites counted")
	}
	fault := OpFault{Target: TargetIntState, Index: counts.IntSites / 2, Bit: 2}
	res := NewRunner(k, f, "", wrap).Run([]OpFault{fault}, nil, false)
	if !res.FaultApplied {
		t.Fatal("int-state fault did not fire")
	}
	if res.Outcome != SDC {
		t.Fatalf("int-state fault masked")
	}
	// A 2^(+-4) scaling of one exp() term shifts its accumulator
	// contribution materially: well above mantissa-LSB noise.
	if res.MaxRelErr < 0.01 {
		t.Errorf("int-state corruption rel err %v suspiciously small", res.MaxRelErr)
	}
}

func TestIntStateFaultCountsAcrossChainedEnvs(t *testing.T) {
	// Two chained injection envs must keep consistent int counters and
	// both see every decision.
	m := fp.NewMachine(fp.Double)
	e1 := NewEnv(m, OpFault{Target: TargetIntState, Index: 1, Bit: 0})
	e2 := NewEnv(e1, OpFault{Target: TargetIntState, Index: 0, Bit: 1})
	d := fp.NewExpDecomp(e2, 6, 1)
	d.IntSites = 2
	d.Exp(d.FromFloat64(-0.4))
	if e1.Applied() != 1 || e2.Applied() != 1 {
		t.Errorf("chained int faults applied %d/%d, want 1/1", e1.Applied(), e2.Applied())
	}
}

// TestRunChainsMultipleFaults: Runner.Run with two or more operation
// faults equals the run of a hand-built chain of one injecting layer
// per fault over a plain machine — same output bits, outcome and
// FaultApplied — in every format, for persistent (FPGA configuration)
// and one-shot faults, with and without a memory fault.
func TestRunChainsMultipleFaults(t *testing.T) {
	k := kernels.NewGEMM(8, 3)
	for _, f := range fp.Formats {
		ops := kernels.Profile(k, f).Total()
		cases := []struct {
			name string
			op   []OpFault
			mem  []MemFault
		}{
			{"persistent", []OpFault{
				{Kind: fp.OpFMA, Index: 3, Modulo: 7, Bit: f.MantBits() - 1, Target: TargetResult},
				{Kind: fp.OpFMA, Index: 5, Modulo: 11, Bit: 1, Target: TargetResult},
			}, nil},
			{"three-layers", []OpFault{
				{Kind: fp.OpFMA, Index: 0, Modulo: 64, Bit: f.Width() - 2, Target: TargetResult},
				{AnyKind: true, Index: ops / 2, Bit: 2, Target: TargetOperand, OperandIdx: 1},
				{Kind: fp.OpFMA, Index: 9, Modulo: 13, Bit: 0, Width: 2, Target: TargetResult},
			}, nil},
			{"one-shot+memory", []OpFault{
				{AnyKind: true, Index: ops - 1, Bit: f.MantBits() - 2, Target: TargetResult},
				{AnyKind: true, Index: ops + 5, Bit: 3, Target: TargetResult},
			}, []MemFault{{Array: 1, Elem: 17, Bit: f.MantBits() - 1}}},
			{"none-fire", []OpFault{
				{AnyKind: true, Index: ops + 1, Bit: 3, Target: TargetResult},
				{AnyKind: true, Index: ops + 2, Bit: 4, Target: TargetResult},
			}, nil},
		}
		golden := goldenFor(k, f)
		for _, c := range cases {
			got := NewRunner(k, f, "", nil).Run(c.op, c.mem, true)

			in := k.Inputs(f)
			for _, mf := range c.mem {
				arr := in[mf.Array]
				arr[mf.Elem] = FlipBits(f, arr[mf.Elem], mf.Bit, mf.Width)
			}
			var env fp.Env = fp.NewMachine(f)
			applied := len(c.mem) > 0
			var layers []*Env
			for _, fl := range c.op {
				l := NewEnv(env, fl)
				layers = append(layers, l)
				env = l
			}
			out := kernels.Decode(f, k.Run(env, in))
			want := Masked
			for i := range out {
				if out[i] != golden[i] {
					want = SDC
				}
			}
			for _, l := range layers {
				applied = applied || l.Applied() > 0
			}

			if got.Outcome != want || got.FaultApplied != applied {
				t.Errorf("%v/%s: Run gave %v applied=%v, chain %v applied=%v",
					f, c.name, got.Outcome, got.FaultApplied, want, applied)
			}
			for i := range out {
				if math.Float64bits(got.Output[i]) != math.Float64bits(out[i]) {
					t.Fatalf("%v/%s: output %d is %v, chain gives %v", f, c.name, i, got.Output[i], out[i])
				}
			}
		}
	}
}
