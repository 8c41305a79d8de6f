package inject

import (
	"fmt"
	"math"
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
)

// The schedule (several op faults in one Env) is held to the reference
// it replaced: one injecting Env layer per fault, chained over a plain
// machine, with no replay trace, program or tile table installed. Every
// layer then counts the same operation stream, so each fault strikes
// exactly the operations it would strike alone, and two faults on one
// operation apply both corruptions.

// chainRun runs k under ops as a layer chain, with mem's bits flipped in
// the inputs first, and returns the output bits and whether any fault
// fired.
func chainRun(k kernels.Kernel, f fp.Format, wrap func(fp.Env) fp.Env, ops []OpFault, mem []MemFault) ([]fp.Bits, bool) {
	in := k.Inputs(f)
	for _, mf := range mem {
		arr := in[mf.Array%len(in)]
		i := mf.Elem % len(arr)
		arr[i] = FlipBits(f, arr[i], mf.Bit, mf.Width)
	}
	var env fp.Env = fp.NewMachine(f)
	layers := make([]*Env, len(ops))
	for i, of := range ops {
		layers[i] = NewEnv(env, of)
		env = layers[i]
	}
	if wrap != nil {
		env = wrap(env)
	}
	out := k.Run(env, in)
	applied := len(mem) > 0
	for _, l := range layers {
		applied = applied || l.Applied() > 0
	}
	return out, applied
}

// scheduleFixture is a configuration's compiled and interpreted runners.
type scheduleFixture struct {
	k                     kernels.Kernel
	f                     fp.Format
	wrap                  func(fp.Env) fp.Env
	compiled, interpreted *Runner
	golden                []float64
}

func newScheduleFixture(k kernels.Kernel, f fp.Format, key string, wrap func(fp.Env) fp.Env) *scheduleFixture {
	fx := &scheduleFixture{k: k, f: f, wrap: wrap,
		compiled: NewRunner(k, f, key, wrap), interpreted: NewRunner(k, f, key, wrap)}
	fx.interpreted.disableCompiledReplay = true
	fx.golden = fx.compiled.Golden()
	return fx
}

// check runs the schedule op+ops through both runners (Op set when op is
// non-nil) and requires the chain's output bits, outcome and
// FaultApplied.
func (fx *scheduleFixture) check(t *testing.T, op *OpFault, ops []OpFault, mem []MemFault) {
	t.Helper()
	chain := ops
	if op != nil {
		chain = append([]OpFault{*op}, ops...)
	}
	outBits, applied := chainRun(fx.k, fx.f, fx.wrap, chain, mem)
	want := kernels.Decode(fx.f, outBits)
	outcome := Masked
	for i := range want {
		if want[i] != fx.golden[i] {
			outcome = SDC
		}
	}
	spec := FaultSpec{Op: op, Ops: ops, Mem: mem}
	for _, r := range []*Runner{fx.compiled, fx.interpreted} {
		mode := "compiled"
		if r.disableCompiledReplay {
			mode = "interpreted"
		}
		got, abort := r.RunSpec(spec, true)
		if abort != nil {
			t.Fatalf("%v %s %s: aborted: %v", fx.f, mode, spec.Desc(), abort.Value)
		}
		if got.Outcome != outcome || got.FaultApplied != applied {
			t.Fatalf("%v %s %s: %v applied=%v, chain %v applied=%v",
				fx.f, mode, spec.Desc(), got.Outcome, got.FaultApplied, outcome, applied)
		}
		for i := range want {
			if math.Float64bits(got.Output[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v %s %s: output %d is %v, chain %v", fx.f, mode, spec.Desc(), i, got.Output[i], want[i])
			}
		}
	}
}

// TestScheduleMatchesChainGEMMPairs: every ordered pair of operation
// indices of GEMM(3), in result/result, operand/result and
// operand/operand combinations, at the same bit (two faults on one
// operation and one bit, whose masks cancel) and at different bits; then
// persistent pairs of Modulo 1, 2, 5 and 7 at every pair of residues,
// AnyKind and FMA-only, some merged into one entry and some not. In
// half, single and double. -short takes every fifth pair.
func TestScheduleMatchesChainGEMMPairs(t *testing.T) {
	k := kernels.NewGEMM(3, 4)
	stride := 1
	if testing.Short() {
		stride = 5
	}
	targets := [][2]Target{
		{TargetResult, TargetResult},
		{TargetOperand, TargetResult},
		{TargetOperand, TargetOperand},
	}
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		fx := newScheduleFixture(k, f, "", nil)
		n := fx.compiled.Counts().Total()
		bits := []int{f.MantBits() - 1, f.Width() - 2}
		pair := 0
		for i := uint64(0); i < n; i++ {
			for j := uint64(0); j < n; j++ {
				for ti, tg := range targets {
					for _, same := range []bool{true, false} {
						if pair++; pair%stride != 0 {
							continue
						}
						b0, b1 := bits[ti%2], bits[ti%2]
						if !same {
							b1 = bits[(ti+1)%2]
						}
						// Operand indices agree on the diagonal, so a
						// same-bit operand pair cancels there.
						oi := int(i+j) % 3
						a := OpFault{AnyKind: true, Index: i, Bit: b0, Target: tg[0], OperandIdx: oi}
						b := OpFault{AnyKind: true, Index: j, Bit: b1, Target: tg[1], OperandIdx: oi}
						fx.check(t, &a, []OpFault{b}, nil)
					}
				}
			}
		}
		for _, mod := range []uint64{1, 2, 5, 7} {
			for i := uint64(0); i < mod; i++ {
				for j := uint64(0); j < mod; j++ {
					for v := 0; v < 4; v++ {
						if pair++; pair%stride != 0 {
							continue
						}
						a := OpFault{AnyKind: v == 1, Kind: fp.OpFMA, Index: i, Modulo: mod,
							Bit: bits[v%2], Target: TargetResult}
						b := OpFault{AnyKind: v == 1, Kind: fp.OpFMA, Index: j + mod*uint64(v), Modulo: mod,
							Bit: bits[v/2], Width: 1 + v%2, Target: Target(v / 3), OperandIdx: v}
						fx.check(t, nil, []OpFault{a, b}, nil)
						fx.check(t, &a, []OpFault{b, a}, nil)
					}
				}
			}
		}
	}
}

// TestScheduleMatchesChainMixedKinds draws schedules of two and three
// faults on Hotspot(5,3) (closed tiles; Add, Sub and FMA) and LavaMD(2,1)
// (open tiles, Exp, and int-state sites under a software exp):
// one-shot and persistent, AnyKind and Kind-specific, result, operand and
// int-state targets, some with a memory fault, some pairs on one
// operation. -short draws a fifth as many.
func TestScheduleMatchesChainMixedKinds(t *testing.T) {
	samples := 400
	if testing.Short() {
		samples = 80
	}
	type config struct {
		k    kernels.Kernel
		key  string
		wrap func(fp.Env) fp.Env
	}
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		phi := tileWraps(f)[1]
		for _, c := range []config{
			{k: kernels.NewHotspot(5, 3, 8)},
			{k: kernels.NewLavaMD(2, 1, 5)},
			{k: kernels.NewLavaMD(2, 1, 5), key: phi.key, wrap: phi.wrap},
		} {
			t.Run(fmt.Sprintf("%s%s/%v", c.k.Name(), c.key, f), func(t *testing.T) {
				fx := newScheduleFixture(c.k, f, c.key, c.wrap)
				counts := fx.compiled.Counts()
				var kinds []fp.Op
				for op := fp.Op(0); int(op) < fp.NumOps; op++ {
					if counts.ByOp[op] > 0 {
						kinds = append(kinds, op)
					}
				}
				r := rng.New(0x5C4ED + uint64(f.Width()))
				draw := func() OpFault {
					kind := kinds[r.Intn(len(kinds))]
					target := Target(r.Intn(2))
					if counts.IntSites > 0 && r.Intn(4) == 0 {
						target = TargetIntState
					}
					of := SampleOpFault(r, counts, f, kind, r.Intn(2) == 0, target)
					if target == TargetIntState {
						of.Index = r.Uint64n(counts.IntSites)
					}
					if r.Intn(3) == 0 {
						of.Modulo = 1 + r.Uint64n(2*uint64(len(kinds))+3)
					}
					return of
				}
				for i := 0; i < samples; i++ {
					ops := []OpFault{draw(), draw()}
					if i%3 == 0 {
						// The same operation, at another bit or the same.
						ops[1] = ops[0]
						ops[1].Bit = (ops[0].Bit + i%2) % f.Width()
					}
					if i%4 == 1 {
						ops = append(ops, draw())
					}
					var mem []MemFault
					if i%5 == 2 {
						mem = []MemFault{SampleMemFault(r, fx.compiled.ArrayLens(), f)}
					}
					fx.check(t, nil, ops, mem)
				}
			})
		}
	}
}
