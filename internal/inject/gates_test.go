package inject

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
	"mixedrel/internal/traceir"
)

// The quiet horizon (Env.quiet/kindAt, rearm, quietLen) is a cost
// policy over exact per-operation semantics: it decides which operations
// may skip matching and the DUE hooks, never what an operation does. The
// tests below hold it to an oracle that matches the fault and runs the
// DUE hooks on every single operation, as the injector did before the
// horizon existed.

// oracle is the reference injector. Its state lives in an Env so that it
// shares the event effects (applyControl, duePre, duePost, flip, and
// IntDecision) with the injector under test, but none of the gating:
// every operation calls match and dueStep itself. It has no batch
// methods, so the fp batch helpers decompose through it.
type oracle struct{ e *Env }

// match reports whether the current operation (of the given kind) is
// struck, using the counters prior to increment.
func (o oracle) match(kind fp.Op) bool {
	e := o.e
	var ctr uint64
	if e.fault.AnyKind {
		ctr = e.all
	} else {
		if kind != e.fault.Kind {
			return false
		}
		ctr = e.byKind[kind]
	}
	if e.fault.Modulo > 0 {
		return ctr%e.fault.Modulo == e.fault.Index%e.fault.Modulo
	}
	return ctr == e.fault.Index
}

// dueStep runs the watchdog and the control strike for the operation
// just counted.
func (o oracle) dueStep() {
	e := o.e
	if e.budget > 0 && e.all > e.budget {
		panic(dueSignal{outcome: HangDUE, cause: CauseWatchdog})
	}
	if e.ctlArmed && e.all-1 == e.ctl.Site {
		e.ctlArmed = false
		e.applyControl()
	}
}

func (o oracle) op(kind fp.Op, a, b, c fp.Bits) fp.Bits {
	e := o.e
	hit := o.match(kind)
	e.all++
	e.byKind[kind]++
	if e.due {
		o.dueStep()
	}
	hitOperand := hit && e.fault.Target == TargetOperand
	hitResult := hit && e.fault.Target == TargetResult
	if hitOperand {
		switch kind {
		case fp.OpSqrt, fp.OpExp:
			a = e.flip(a)
		case fp.OpFMA:
			switch e.fault.OperandIdx % 3 {
			case 0:
				a = e.flip(a)
			case 1:
				b = e.flip(b)
			default:
				c = e.flip(c)
			}
		default:
			if e.fault.OperandIdx%2 == 0 {
				a = e.flip(a)
			} else {
				b = e.flip(b)
			}
		}
		e.applied++
	}
	var skipped bool
	if e.due {
		a, skipped = e.duePre(a)
	}
	res := a
	if kind == fp.OpFMA {
		res = c
	}
	if !skipped {
		switch kind {
		case fp.OpAdd:
			res = e.inner.Add(a, b)
		case fp.OpSub:
			res = e.inner.Sub(a, b)
		case fp.OpMul:
			res = e.inner.Mul(a, b)
		case fp.OpDiv:
			res = e.inner.Div(a, b)
		case fp.OpFMA:
			res = e.inner.FMA(a, b, c)
		case fp.OpSqrt:
			res = e.inner.Sqrt(a)
		case fp.OpExp:
			res = e.inner.Exp(a)
		}
	}
	if hitResult {
		res = e.flip(res)
		e.applied++
	}
	if e.due {
		res = e.duePost(res)
	}
	return res
}

func (o oracle) Format() fp.Format             { return o.e.Format() }
func (o oracle) FromFloat64(v float64) fp.Bits { return o.e.FromFloat64(v) }
func (o oracle) ToFloat64(b fp.Bits) float64   { return o.e.ToFloat64(b) }
func (o oracle) IntDecision(k int) int         { return o.e.IntDecision(k) }
func (o oracle) Add(a, b fp.Bits) fp.Bits      { return o.op(fp.OpAdd, a, b, 0) }
func (o oracle) Sub(a, b fp.Bits) fp.Bits      { return o.op(fp.OpSub, a, b, 0) }
func (o oracle) Mul(a, b fp.Bits) fp.Bits      { return o.op(fp.OpMul, a, b, 0) }
func (o oracle) Div(a, b fp.Bits) fp.Bits      { return o.op(fp.OpDiv, a, b, 0) }
func (o oracle) FMA(a, b, c fp.Bits) fp.Bits   { return o.op(fp.OpFMA, a, b, c) }
func (o oracle) Sqrt(a fp.Bits) fp.Bits        { return o.op(fp.OpSqrt, a, 0, 0) }
func (o oracle) Exp(a fp.Bits) fp.Bits         { return o.op(fp.OpExp, a, 0, 0) }

// spyCall is one operation that reached an injector's inner machine,
// with the injector's corruption count at that moment: an operand strike
// shows as a corrupted operand in the entry it hits and as the count
// rising there, a result strike as the count rising on the next entry.
// Two injectors whose spy logs agree struck the same positions.
type spyCall struct {
	kind    fp.Op
	a, b, c fp.Bits
	applied uint64
}

// spy is an inner machine that logs every operation it computes.
type spy struct {
	fp.Env
	owner *Env
	log   []spyCall
}

func (s *spy) rec(kind fp.Op, a, b, c fp.Bits) {
	s.log = append(s.log, spyCall{kind, a, b, c, s.owner.applied})
}

func (s *spy) Add(a, b fp.Bits) fp.Bits    { s.rec(fp.OpAdd, a, b, 0); return s.Env.Add(a, b) }
func (s *spy) Sub(a, b fp.Bits) fp.Bits    { s.rec(fp.OpSub, a, b, 0); return s.Env.Sub(a, b) }
func (s *spy) Mul(a, b fp.Bits) fp.Bits    { s.rec(fp.OpMul, a, b, 0); return s.Env.Mul(a, b) }
func (s *spy) Div(a, b fp.Bits) fp.Bits    { s.rec(fp.OpDiv, a, b, 0); return s.Env.Div(a, b) }
func (s *spy) FMA(a, b, c fp.Bits) fp.Bits { s.rec(fp.OpFMA, a, b, c); return s.Env.FMA(a, b, c) }
func (s *spy) Sqrt(a fp.Bits) fp.Bits      { s.rec(fp.OpSqrt, a, 0, 0); return s.Env.Sqrt(a) }
func (s *spy) Exp(a fp.Bits) fp.Bits       { s.rec(fp.OpExp, a, 0, 0); return s.Env.Exp(a) }

// newSpied builds an injecting environment over a logging machine.
func newSpied(f fp.Format) (*Env, *spy) {
	s := &spy{Env: fp.NewMachine(f)}
	e := NewEnv(s, neverFault)
	s.owner = e
	return e, s
}

// gateStream drives runStream's batch shapes between scalar operations
// of every kind, so strikes, budgets and control sites land inside,
// across and between batch windows of every shape. Its last batch
// produces an infinity mid-window, which a live trap must catch at its
// exact operation.
func gateStream(env fp.Env, f fp.Format) []fp.Bits {
	x := f.FromFloat64(1.25)
	y := f.FromFloat64(0.75)
	out := []fp.Bits{env.Sub(x, y), env.Div(x, y), env.Sqrt(x), env.Exp(y)}
	out = append(out, runStream(env, f)...)
	out = append(out, env.FMA(out[0], out[1], out[2]), env.Exp(out[3]), env.Div(out[5], x), env.Sqrt(out[6]))
	out = append(out, runStream(env, f)...)
	dst := []fp.Bits{y, x, y, y}
	fp.AXPY(env, dst, f.FromFloat64(1), []fp.Bits{x, y, f.FromFloat64(math.Inf(1)), x})
	return append(out, dst...)
}

// gateRun is everything observable about one run.
type gateRun struct {
	out     []fp.Bits
	sig     *dueSignal
	applied uint64
	all     uint64
	byKind  [fp.NumOps]uint64
	log     []spyCall
}

// runGuarded runs fn under exec.Guard and returns the emulated DUE it
// ended in, if any; any other panic fails the test.
func runGuarded(t *testing.T, fn func()) *dueSignal {
	t.Helper()
	abort := exec.Guard(fn)
	if abort == nil {
		return nil
	}
	sig, ok := abort.Value.(dueSignal)
	if !ok {
		t.Fatalf("run panicked: %v\n%s", abort.Value, abort.Stack)
	}
	return &sig
}

// gateMem is the input footprint index and pointer faults read through.
func gateMem(f fp.Format) [][]fp.Bits {
	return [][]fp.Bits{
		{f.FromFloat64(3), f.FromFloat64(-0.5), f.FromFloat64(7), f.FromFloat64(0.125), f.FromFloat64(2)},
		{f.FromFloat64(-4), f.FromFloat64(1.5), f.FromFloat64(0.25)},
	}
}

// gateFixture is an operation stream under test with its fault-free
// artifacts: the result trace and the compiled program recorded from it.
type gateFixture struct {
	f      fp.Format
	stream func(fp.Env, fp.Format) []fp.Bits
	trace  []fp.Bits
	prog   *traceir.Program
}

// newGateFixture records stream's fault-free run in format f.
func newGateFixture(t *testing.T, f fp.Format, stream func(fp.Env, fp.Format) []fp.Bits) *gateFixture {
	t.Helper()
	rec := traceir.NewRecorder(fp.NewMachine(f))
	stream(rec, f)
	fx := &gateFixture{f: f, stream: stream, trace: rec.Results(), prog: rec.Compile()}
	if fx.trace == nil || fx.prog == nil {
		t.Fatalf("%v: stream recorded no trace or program", f)
	}
	return fx
}

// check runs spec through the oracle and through the injector under
// test — once computing every operation, once with the fault-free replay
// trace installed when the spec allows it, and once with the compiled
// program installed as well — and requires the same outputs, corruption
// count, counters and outcome, plus the same strike positions in the
// computed run.
func (fx *gateFixture) check(t *testing.T, spec FaultSpec, goldenOps uint64) {
	t.Helper()
	f := fx.f
	run := func(build func() (fp.Env, *Env, *spy)) gateRun {
		env, e, s := build()
		var r gateRun
		r.sig = runGuarded(t, func() { r.out = fx.stream(env, f) })
		r.applied, r.all, r.byKind, r.log = e.applied, e.all, e.byKind, s.log
		return r
	}
	want := run(func() (fp.Env, *Env, *spy) {
		e, s := newSpied(f)
		e.resetSpec(spec, goldenOps, gateMem(f))
		return oracle{e}, e, s
	})
	injector := func(replay bool, prog *traceir.Program) gateRun {
		return run(func() (fp.Env, *Env, *spy) {
			e, s := newSpied(f)
			e.resetSpec(spec, goldenOps, gateMem(f))
			if replay && len(spec.Mem) == 0 {
				// Pre-run corruption voids the replay induction.
				e.replay = fx.trace
			}
			e.prog = prog
			return e, e, s
		})
	}
	compare := func(mode string, got gateRun, logs bool) {
		t.Helper()
		if !reflect.DeepEqual(got.sig, want.sig) {
			t.Fatalf("%s %s: outcome %+v, oracle %+v", spec.Desc(), mode, got.sig, want.sig)
		}
		if !reflect.DeepEqual(got.out, want.out) {
			t.Fatalf("%s %s: outputs\n  %x\noracle\n  %x", spec.Desc(), mode, got.out, want.out)
		}
		if got.applied != want.applied || got.all != want.all || got.byKind != want.byKind {
			t.Fatalf("%s %s: applied %d all %d byKind %v, oracle applied %d all %d byKind %v",
				spec.Desc(), mode, got.applied, got.all, got.byKind, want.applied, want.all, want.byKind)
		}
		if logs && !reflect.DeepEqual(got.log, want.log) {
			for i := range got.log {
				if i >= len(want.log) || got.log[i] != want.log[i] {
					t.Fatalf("%s %s: inner call %d is %+v, oracle's %+v", spec.Desc(), mode, i, got.log[i], want.log[min(i, len(want.log)-1)])
				}
			}
			t.Fatalf("%s %s: %d inner calls, oracle %d", spec.Desc(), mode, len(got.log), len(want.log))
		}
	}
	compare("computed", injector(false, nil), true)
	if len(spec.Mem) == 0 {
		compare("replayed", injector(true, nil), false)
	}
	compare("compiled", injector(true, fx.prog), false)
}

// TestQuietHorizonMatchesOracle sweeps every strike index of the stream
// for AnyKind and Kind-specific faults, Modulo 0 and k, and operand,
// result and int-state targets, each bare, under a watchdog whose budget
// lands on every stream position, and with a control site of every
// class; then adds random specs combining all of it with the trap and
// pre-run memory corruption.
func TestQuietHorizonMatchesOracle(t *testing.T) {
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		fx := newGateFixture(t, f, gateStream)
		n := uint64(len(fx.trace))
		// Ops of each kind in the stream, for Kind-specific index ranges.
		var byKind [fp.NumOps]uint64
		{
			e := NewEnv(fp.NewMachine(f), neverFault)
			gateStream(noBatch{e}, f)
			byKind = e.byKind
		}
		top := f.Width() - 2 // top exponent bit: flips 1.x into Inf/NaN
		type shape struct {
			any  bool
			kind fp.Op
		}
		shapes := []shape{{any: true}, {kind: fp.OpFMA}, {kind: fp.OpAdd}, {kind: fp.OpMul}, {kind: fp.OpExp}, {kind: fp.OpDiv}}
		for _, sh := range shapes {
			limit := n
			if !sh.any {
				limit = byKind[sh.kind]
			}
			for _, mod := range []uint64{0, 3, 7} {
				for _, target := range []Target{TargetOperand, TargetResult, TargetIntState} {
					for idx := uint64(0); idx <= limit+1; idx++ {
						i := int(idx)
						of := OpFault{AnyKind: sh.any, Kind: sh.kind, Index: idx, Modulo: mod,
							Bit: (i * 5) % f.Width(), Target: target, OperandIdx: i % 3}
						fx.check(t, FaultSpec{Op: &of}, n)
						// The watchdog's budget (goldenOps x 1) on every
						// position: trips inside, at the edge of, and
						// between batch windows.
						fx.check(t, FaultSpec{Op: &of, Watchdog: 1}, 1+(idx*7)%n)
						for class := ControlClass(0); class < numControlClasses; class++ {
							cf := ControlFault{Class: class, Site: (idx*5 + uint64(class)) % n, Bit: (i*11 + int(class)) % 48}
							fx.check(t, FaultSpec{Op: &of, Control: &cf, Watchdog: 4, TrapNonFinite: i%2 == 0}, n)
						}
					}
				}
			}
		}

		r := rng.New(0x9A7E + uint64(f.Width()))
		for i := 0; i < 3000; i++ {
			var spec FaultSpec
			if r.Intn(4) != 0 {
				sh := shapes[r.Intn(len(shapes))]
				limit := n
				if !sh.any {
					limit = byKind[sh.kind]
				}
				bit := r.Intn(f.Width())
				if r.Intn(3) == 0 {
					bit = top
				}
				of := OpFault{AnyKind: sh.any, Kind: sh.kind, Index: r.Uint64n(limit + 2), Bit: bit,
					Width: 1 + r.Intn(2), Target: Target(r.Intn(3)), OperandIdx: r.Intn(3)}
				if r.Intn(2) == 0 {
					of.Modulo = 1 + r.Uint64n(9)
				}
				spec.Op = &of
			}
			if r.Intn(2) == 0 {
				cf := ControlFault{Class: ControlClass(r.Intn(NumControlClasses)), Site: r.Uint64n(n + 1), Bit: r.Intn(48)}
				spec.Control = &cf
			}
			if r.Intn(2) == 0 {
				spec.Watchdog = []float64{0.5, 1, 1.5, 4}[r.Intn(4)]
			}
			spec.TrapNonFinite = r.Intn(2) == 0
			if r.Intn(4) == 0 {
				spec.Mem = []MemFault{{}} // arms the trap from op 0
			}
			fx.check(t, spec, 1+r.Uint64n(2*n))
		}
	}
}

// splitStream drives every batch method with windows long enough for a
// persistent fault to gate them several times: a 20-element chain, an
// AXPY, a 4x5x6 grid with per-row accumulators and a 3x3x4 grid
// without, and a block of chains; 16-element scalar loops (one an FMA
// loop whose destination aliases its addends) run between them. Earlier outputs feed a row of the first grid and a column
// of the second, so a strike upstream dirties them for compare-serving.
// Like gateStream, it ends in a batch that yields an infinity
// mid-window.
func splitStream(env fp.Env, f fp.Format) []fp.Bits {
	mk := func(n, salt int) []fp.Bits {
		out := make([]fp.Bits, n)
		for i := range out {
			out[i] = f.FromFloat64(0.25 + float64((i*7+salt*3)%23)/32)
		}
		return out
	}
	out := []fp.Bits{fp.DotFMA(env, f.FromFloat64(0.5), mk(20, 1), mk(20, 2))}
	d := make([]fp.Bits, 16)
	addN(env, d, mk(16, 3), mk(16, 4))
	out = append(out, d...)
	out = append(out, env.Mul(out[0], out[1]))
	mulN(env, d, mk(16, 5), mk(16, 6))
	out = append(out, d...)
	c := mk(16, 7)
	fmaN(env, c, mk(16, 8), mk(16, 9), c)
	out = append(out, c...)
	x := mk(16, 10)
	fp.AXPY(env, x, out[2], mk(16, 11))
	out = append(out, x...)

	a := mk(24, 13)
	a[7] = x[3] // row 1
	g := make([]fp.Bits, 20)
	fp.GemmFMA(env, g, mk(4, 12), a, mk(30, 14), 4, 5, 6)
	out = append(out, g...)
	out = append(out, env.Add(g[0], g[19]))
	bt := mk(12, 16)
	bt[5] = g[7] // column 1
	g2 := make([]fp.Bits, 9)
	fp.GemmFMA(env, g2, nil, mk(12, 15), bt, 3, 3, 4)
	out = append(out, g2...)
	blk := make([]fp.Bits, 3)
	dotBlock(env, blk, out[3], mk(5, 17), mk(15, 18), 5)
	out = append(out, blk...)

	inf := f.FromFloat64(math.Inf(1))
	d4 := []fp.Bits{g[0], g[1], g[2], g[3]}
	fp.AXPY(env, d4, f.FromFloat64(1), []fp.Bits{x[0], x[1], inf, x[2]})
	return append(out, d4...)
}

// TestSplitWindowsMatchOracle holds the gate-split batch windows to the
// oracle's full per-operation decomposition on splitStream: persistent
// faults of Modulo 1, 2, 13 and k+1 (7, for the 4x5x6 grid) at every
// residue, and one-shot faults at every index, AnyKind and Kind-specific,
// striking operands and results; each bare, under a watchdog, with a
// control site (the trap armed on alternate ones), and with the trap
// live from the first operation.
func TestSplitWindowsMatchOracle(t *testing.T) {
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		fx := newGateFixture(t, f, splitStream)
		n := uint64(len(fx.trace))
		var byKind [fp.NumOps]uint64
		{
			e := NewEnv(fp.NewMachine(f), neverFault)
			splitStream(noBatch{e}, f)
			byKind = e.byKind
		}
		type shape struct {
			any  bool
			kind fp.Op
		}
		for _, sh := range []shape{{any: true}, {kind: fp.OpFMA}, {kind: fp.OpAdd}, {kind: fp.OpMul}} {
			for _, mod := range []uint64{0, 1, 2, 13, 7} {
				limit := mod
				if mod == 0 {
					limit = byKind[sh.kind] + 1
					if sh.any {
						limit = n + 1
					}
				}
				for idx := uint64(0); idx < limit; idx++ {
					for _, target := range []Target{TargetOperand, TargetResult} {
						i := int(idx)
						of := OpFault{AnyKind: sh.any, Kind: sh.kind, Index: idx, Modulo: mod,
							Bit: (i*5 + int(mod)) % f.Width(), Target: target, OperandIdx: i % 3}
						fx.check(t, FaultSpec{Op: &of}, n)
						fx.check(t, FaultSpec{Op: &of, Watchdog: 1}, 1+(idx*11+mod)%n)
						cf := ControlFault{Class: ControlClass(i % NumControlClasses), Site: (idx*13 + mod) % n, Bit: (i*7 + int(mod)) % 48}
						fx.check(t, FaultSpec{Op: &of, Control: &cf, Watchdog: 4, TrapNonFinite: i%2 == 0}, n)
						fx.check(t, FaultSpec{Op: &of, TrapNonFinite: true, Mem: []MemFault{{}}}, n)
					}
				}
			}
		}
	}
}

// TestFaultMaskMatchesFlipBits holds the per-run mask that every strike
// XORs in to FlipBits at every bit position and widths 0-3, including the
// top positions where a multi-bit upset wraps round to bit 0, in every
// format.
func TestFaultMaskMatchesFlipBits(t *testing.T) {
	for _, f := range fp.AllFormats {
		b := f.FromFloat64(-1.2345)
		for width := 0; width <= 3; width++ {
			for bit := 0; bit < f.Width(); bit++ {
				for _, target := range []Target{TargetResult, TargetOperand} {
					e := NewEnv(fp.NewMachine(f), OpFault{Bit: bit, Width: width, Target: target})
					if got, want := e.flip(b), FlipBits(f, b, bit, width); got != want {
						t.Fatalf("%v %v bit %d width %d: flip %#x, FlipBits %#x", f, target, bit, width, got, want)
					}
				}
			}
		}
	}
}

// TestStruckResultExitMatchesOracle pins both sides of the struck-result
// exit of Env.slow. Result faults of Width 1-3 at the two top bits, where
// the mask wraps round to bit 0, and at bit 0; persistent (Modulo 1, 2
// and 13) and one-shot; AnyKind and Kind-specific — run on both gate
// streams in every format, bare, where every persistent strike takes the
// exit (and a one-shot one the general path), and with exactly one DUE
// hook armed, where none may: a watchdog whose budget lands inside the
// stream, the trap, or one control site of each class.
func TestStruckResultExitMatchesOracle(t *testing.T) {
	type shape struct {
		any  bool
		kind fp.Op
	}
	streams := []func(fp.Env, fp.Format) []fp.Bits{gateStream, splitStream}
	for _, f := range fp.AllFormats {
		for si, stream := range streams {
			fx := newGateFixture(t, f, stream)
			n := uint64(len(fx.trace))
			w := f.Width()
			for _, width := range []int{1, 2, 3} {
				for _, bit := range []int{w - 1, w - 2, 0} {
					for _, sh := range []shape{{any: true}, {kind: fp.OpFMA}, {kind: fp.OpAdd}} {
						for _, mod := range []uint64{0, 1, 2, 13} {
							for _, idx := range []uint64{uint64(si), uint64(width*5+si) % 11} {
								of := OpFault{AnyKind: sh.any, Kind: sh.kind, Index: idx, Modulo: mod,
									Bit: bit, Width: width, Target: TargetResult}
								fx.check(t, FaultSpec{Op: &of}, n)
								fx.check(t, FaultSpec{Op: &of, Watchdog: 1}, 1+(idx*7+mod)%n)
								fx.check(t, FaultSpec{Op: &of, TrapNonFinite: true}, n)
								for class := ControlClass(0); class < numControlClasses; class++ {
									cf := ControlFault{Class: class, Site: (idx*5 + mod*3 + uint64(class)) % n, Bit: int(class)*7 + width}
									fx.check(t, FaultSpec{Op: &of, Control: &cf}, n)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestStruckGridMatchesSlowPath holds GemmFMA's struck grid, one machine
// call for the grid's rest once its next gate is a scheduled strike, to
// the per-operation slow path: the same grid decomposed into scalar FMAs
// through the same injector. Persistent result faults of Modulo 1, 2,
// 13, k-1, k, k+1 and one past the whole stream, at every residue,
// AnyKind and FMA-only, of Width 1-3 at the top bits (where the mask
// wraps round to bit 0), strike grids whose chain counts are not
// multiples of the interleave widths, with and without row
// accumulators, entered fresh or after scalar operations that already
// struck. Outputs, corruption count, counters and the next strike must
// agree; scalar FMAs after the grid then show where that strike lands.
func TestStruckGridMatchesSlowPath(t *testing.T) {
	type shape struct{ rows, cols, k int }
	for _, f := range fp.AllFormats {
		mk := func(n, salt int) []fp.Bits {
			out := make([]fp.Bits, n)
			for i := range out {
				out[i] = f.FromFloat64(0.25 + float64((i*7+salt*3)%23)/32 - float64(i%3)/4)
			}
			return out
		}
		x, y := f.FromFloat64(1.25), f.FromFloat64(-0.75)
		// prefix drives n scalar operations, two of every three FMAs.
		prefix := func(env fp.Env, n int) []fp.Bits {
			var out []fp.Bits
			for i := 0; i < n; i++ {
				if i%3 == 2 {
					out = append(out, env.Add(x, y))
				} else {
					out = append(out, env.FMA(x, y, f.FromFloat64(float64(i))))
				}
			}
			return out
		}
		for _, sh := range []shape{{3, 5, 6}, {2, 9, 4}, {5, 1, 7}, {1, 3, 2}} {
			chains, k := sh.rows*sh.cols, sh.k
			a, bt, rowAccs := mk(sh.rows*k, 1), mk(sh.cols*k, 2), mk(sh.rows, 3)
			for _, mod := range []uint64{1, 2, 13, uint64(k - 1), uint64(k), uint64(k + 1), uint64(chains*k + 20)} {
				for idx := uint64(0); idx < mod; idx++ {
					for _, any := range []bool{true, false} {
						for _, pre := range []int{0, 7} {
							for _, accs := range [][]fp.Bits{nil, rowAccs} {
								width := 1 + int(idx)%3
								of := OpFault{AnyKind: any, Kind: fp.OpFMA, Index: idx, Modulo: mod,
									Bit: f.Width() - 1 - int(idx/3)%2, Width: width, Target: TargetResult}
								run := func(batch bool) ([]fp.Bits, *Env) {
									e := NewEnv(fp.NewMachine(f), of)
									var env fp.Env = noBatch{e}
									if batch {
										env = e
									}
									out := prefix(env, pre)
									g := make([]fp.Bits, chains)
									fp.GemmFMA(env, g, accs, a, bt, sh.rows, sh.cols, k)
									out = append(out, g...)
									if e.strikeAt != e.fault.Index%mod+(e.applied)*mod {
										t.Fatalf("%v %+v: strike at %d after %d strikes", f, of, e.strikeAt, e.applied)
									}
									return append(out, prefix(env, int(min(mod, 16))+1)...), e
								}
								desc := fmt.Sprintf("%v %dx%dx%d %+v pre %d accs %v", f, sh.rows, sh.cols, k, of, pre, accs != nil)
								got, ge := run(true)
								want, we := run(false)
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("%s: outputs\n  %x\nslow path\n  %x", desc, got, want)
								}
								if ge.applied != we.applied || ge.all != we.all || ge.byKind != we.byKind ||
									ge.strikeAt != we.strikeAt || ge.quiet != we.quiet || ge.kindAt != we.kindAt {
									t.Fatalf("%s: applied %d all %d byKind %v strike %d, slow path applied %d all %d byKind %v strike %d",
										desc, ge.applied, ge.all, ge.byKind, ge.strikeAt, we.applied, we.all, we.byKind, we.strikeAt)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestStruckResultExitMatchesOracleKernels runs persistent result faults
// of Width 1-3 at the top bits — the FPGA configuration-memory MBU of
// ext-mbu — through Runner, bare and with one DUE hook armed, and
// requires the oracle's classification, cause and output bits: on GEMM
// in every format with Modulo 1 and 13, and on MNIST half with Modulo
// 13, the configuration strike of Fig. 3 and Fig. 5, whose convolution
// grids run struck.
func TestStruckResultExitMatchesOracleKernels(t *testing.T) {
	type kcase struct {
		kern    kernels.Kernel
		formats []fp.Format
		mods    []uint64
	}
	cases := []kcase{
		{kernels.NewGEMM(6, 2), fp.AllFormats, []uint64{1, 13}},
		{kernels.NewMNIST(1, 1), []fp.Format{fp.Half}, []uint64{13}},
	}
	for _, c := range cases {
		for _, f := range c.formats {
			runner := NewRunner(c.kern, f, "", nil)
			total := runner.Counts().Total()
			for _, mod := range c.mods {
				for width := 1; width <= 3; width++ {
					for i, bit := range []int{f.Width() - 1, f.Width() - 2} {
						of := OpFault{AnyKind: i == 0, Kind: fp.OpFMA, Index: uint64(width) % mod, Modulo: mod,
							Bit: bit, Width: width, Target: TargetResult}
						cf := ControlFault{Class: ControlClass(width % NumControlClasses), Site: total / 3, Bit: width}
						for _, spec := range []FaultSpec{
							{Op: &of},
							{Op: &of, Watchdog: DefaultWatchdogFactor},
							{Op: &of, TrapNonFinite: true},
							{Op: &of, Control: &cf},
						} {
							checkKernelGates(t, runner, c.kern, f, spec)
						}
					}
				}
			}
		}
	}
}

// TestQuietHorizonMatchesOracleKernels runs real kernels — every batch
// shape plus the compiled program's compare-serving — through Runner and
// through the oracle, and requires the same classification, cause and
// output bits.
func TestQuietHorizonMatchesOracleKernels(t *testing.T) {
	cases := []kernels.Kernel{
		kernels.NewGEMM(5, 1),
		kernels.NewCG(5, 3, 4),
		kernels.NewLUD(5, 2),
		kernels.NewHotspot(4, 2, 1),
		kernels.NewLavaMD(1, 2, 3),
	}
	for _, k := range cases {
		for _, f := range []fp.Format{fp.Half, fp.Double} {
			t.Run(fmt.Sprintf("%s/%v", k.Name(), f), func(t *testing.T) {
				runner := NewRunner(k, f, "", nil)
				counts := runner.Counts()
				var kinds []fp.Op
				for op := fp.Op(0); int(op) < fp.NumOps; op++ {
					if counts.ByOp[op] > 0 {
						kinds = append(kinds, op)
					}
				}
				r := rng.New(0x0AC1E + uint64(f.Width()))
				for i := 0; i < 150; i++ {
					spec := randomSpec(r, counts, runner.ArrayLens(), f, i)
					if i%3 == 0 && spec.Op != nil {
						// Kind-specific and persistent variants.
						kind := kinds[r.Intn(len(kinds))]
						of := SampleOpFault(r, counts, f, kind, false, spec.Op.Target)
						if i%2 == 0 {
							of.Modulo = 1 + r.Uint64n(counts.ByOp[kind])
						}
						spec.Op = &of
					}
					if i%4 == 1 && spec.Control == nil {
						cf := SampleControlFault(r, counts)
						spec.Control = &cf
						spec.Watchdog = DefaultWatchdogFactor
					}
					checkKernelGates(t, runner, k, f, spec)
				}
			})
		}
	}
}

// TestSplitWindowsMatchOracleKernels runs persistent faults of Modulo
// 1, 2, 13 and k+1 through Runner on GEMM and CG — GemmFMA grids split at
// their gates, compare-served and replayed — and requires the oracle's
// classification, cause and output bits.
func TestSplitWindowsMatchOracleKernels(t *testing.T) {
	const k = 6
	for _, kern := range []kernels.Kernel{kernels.NewGEMM(k, 2), kernels.NewCG(k, 2, 5)} {
		for _, f := range []fp.Format{fp.Half, fp.Single} {
			t.Run(fmt.Sprintf("%s/%v", kern.Name(), f), func(t *testing.T) {
				runner := NewRunner(kern, f, "", nil)
				total := runner.Counts().Total()
				for _, mod := range []uint64{1, 2, 13, k + 1} {
					for i := 0; i < 8; i++ {
						of := OpFault{AnyKind: i%2 == 0, Kind: fp.OpFMA, Index: uint64(i*5) % mod, Modulo: mod,
							Bit: (i*3 + int(mod)) % f.Width(), Target: Target(i / 2 % 2), OperandIdx: i % 3}
						spec := FaultSpec{Op: &of}
						switch i % 4 {
						case 1:
							spec.Watchdog = DefaultWatchdogFactor
						case 2:
							cf := ControlFault{Class: ControlClass(i % NumControlClasses), Site: (uint64(i) * 97) % total, Bit: i * 5}
							spec.Control, spec.Watchdog = &cf, DefaultWatchdogFactor
						case 3:
							spec.TrapNonFinite = true
						}
						checkKernelGates(t, runner, kern, f, spec)
					}
				}
			})
		}
	}
}

// checkKernelGates compares one Runner sample against the oracle.
func checkKernelGates(t *testing.T, runner *Runner, k kernels.Kernel, f fp.Format, spec FaultSpec) {
	t.Helper()
	got, abort := runner.RunSpec(spec, true)
	if abort != nil {
		t.Fatalf("%s: runner aborted: %v", spec.Desc(), abort.Value)
	}

	in := runner.art.CopyInputs(nil)
	for _, mf := range spec.Mem {
		arr := in[mf.Array%len(in)]
		i := mf.Elem % len(arr)
		arr[i] = FlipBits(f, arr[i], mf.Bit, mf.Width)
	}
	e := NewEnv(fp.NewMachine(f), neverFault)
	e.resetSpec(spec, runner.Counts().Total(), in)
	var outBits []fp.Bits
	sig := runGuarded(t, func() { outBits = k.Run(oracle{e}, in) })
	want := RunResult{FaultApplied: len(spec.Mem) > 0 || e.applied > 0}
	if sig != nil {
		want = RunResult{Outcome: sig.outcome, Cause: sig.cause, FaultApplied: true}
	} else {
		golden := runner.Golden()
		want.Output = kernels.Decode(f, outBits)
		for i, v := range want.Output {
			if v != golden[i] {
				want.Outcome = SDC
				if re := fp.RelErr(golden[i], v); re > want.MaxRelErr {
					want.MaxRelErr = re
				}
			}
		}
	}
	if got.Outcome != want.Outcome || got.Cause != want.Cause || got.FaultApplied != want.FaultApplied ||
		math.Float64bits(got.MaxRelErr) != math.Float64bits(want.MaxRelErr) {
		t.Fatalf("%s: runner %v/%v applied=%v relerr=%g, oracle %v/%v applied=%v relerr=%g", spec.Desc(),
			got.Outcome, got.Cause, got.FaultApplied, got.MaxRelErr, want.Outcome, want.Cause, want.FaultApplied, want.MaxRelErr)
	}
	if len(got.Output) != len(want.Output) {
		t.Fatalf("%s: runner output %d values, oracle %d", spec.Desc(), len(got.Output), len(want.Output))
	}
	for i := range got.Output {
		if math.Float64bits(got.Output[i]) != math.Float64bits(want.Output[i]) {
			t.Fatalf("%s: output %d: runner %v, oracle %v", spec.Desc(), i, got.Output[i], want.Output[i])
		}
	}
}
