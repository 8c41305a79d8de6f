package inject

import (
	"fmt"
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
)

// Tile skipping (Env.Tile) must be invisible too: the compiled runner
// skips every output tile no fault can reach and takes its outputs from
// the golden output, while the interpreted runner (disableCompiledReplay)
// executes every tile. These tests hold the two to byte-identical
// journaled samples over every fault class, and check that tiles were
// in fact skipped, so the comparison is not vacuous. LavaMD(1,·) has a
// single tile, which no fault can leave unreached, so the sweeps use
// dim 2.

// tileWrap is an environment the sweeps run LavaMD under.
type tileWrap struct {
	name, key string
	wrap      func(fp.Env) fp.Env
}

// tileWraps are bare, and a software exp of the Xeon Phi's shape for the
// format, whose integer sequencing sites make int-state faults live.
func tileWraps(f fp.Format) []tileWrap {
	shape := fp.ExpShape{Terms: 7, Squarings: 1, IntSites: 1}
	if f == fp.Double {
		shape = fp.ExpShape{Terms: 13, Squarings: 3, IntSites: 2}
	}
	return []tileWrap{{"bare", "", nil}, {"phi", shape.Key(), fp.WrapExp(shape)}}
}

// tileRunners builds a compiled (tile-skipping) and an interpreted
// runner over the same configuration and checks that the kernel marks
// tiles.
func tileRunners(t *testing.T, k kernels.Kernel, f fp.Format, key string, wrap func(fp.Env) fp.Env) (compiled, interpreted *Runner) {
	t.Helper()
	compiled = NewRunner(k, f, key, wrap)
	interpreted = NewRunner(k, f, key, wrap)
	interpreted.disableCompiledReplay = true
	if len(compiled.art.Tiles()) < 2 {
		t.Fatalf("%s/%v: %d tiles, want at least 2", k.Key(), f, len(compiled.art.Tiles()))
	}
	return compiled, interpreted
}

// requireSkips fails unless the tiles-skipped counter grew past before.
func requireSkips(t *testing.T, before uint64) {
	t.Helper()
	if mTilesSkipped.Load() <= before {
		t.Fatal("no tile was skipped: the comparison exercised nothing")
	}
}

// armed returns spec with the trap and the watchdog armed.
func armed(spec FaultSpec) FaultSpec {
	spec.TrapNonFinite = true
	spec.Watchdog = DefaultWatchdogFactor
	return spec
}

func TestTileSkipEquivalenceEveryIndex(t *testing.T) {
	k := kernels.NewLavaMD(2, 1, 5)
	stride := uint64(1)
	if testing.Short() {
		stride = 7
	}
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		for _, w := range tileWraps(f) {
			t.Run(fmt.Sprintf("%v/%s", f, w.name), func(t *testing.T) {
				compiled, interpreted := tileRunners(t, k, f, w.key, w.wrap)
				check := func(spec FaultSpec) {
					checkEquivalent(t, compiled, interpreted, spec, false)
					checkEquivalent(t, compiled, interpreted, armed(spec), false)
				}
				before := mTilesSkipped.Load()
				counts := compiled.Counts()
				total := counts.Total()
				for idx := uint64(0); idx < total; idx += stride {
					bit := int(idx) % f.Width()
					for _, target := range []Target{TargetResult, TargetOperand} {
						check(FaultSpec{Op: &OpFault{AnyKind: true, Index: idx, Bit: bit, Target: target, OperandIdx: int(idx) % 3}})
					}
					// A persistent fault whose next instance lands in a
					// later tile.
					check(FaultSpec{Op: &OpFault{AnyKind: true, Index: idx, Modulo: total/3 + 1, Bit: bit}})
					for c := ControlClass(0); c < numControlClasses; c++ {
						spec := FaultSpec{Control: &ControlFault{Class: c, Site: idx, Bit: int(idx+uint64(c)) % indexBits}}
						spec.Watchdog = DefaultWatchdogFactor
						checkEquivalent(t, compiled, interpreted, spec, false)
						spec.TrapNonFinite = true
						checkEquivalent(t, compiled, interpreted, spec, false)
					}
				}
				for kind, n := range counts.ByOp {
					for idx := uint64(0); idx < n; idx += stride {
						check(FaultSpec{Op: &OpFault{Kind: fp.Op(kind), Index: idx, Bit: int(idx) % f.Width(), Target: Target(idx % 2)}})
					}
				}
				for idx := uint64(0); idx < counts.IntSites; idx++ {
					check(FaultSpec{Op: &OpFault{Index: idx, Bit: int(idx), Target: TargetIntState}})
				}
				requireSkips(t, before)
			})
		}
	}
}

// randomTileSpec draws one fault of any class: an AnyKind or
// kind-specific operation fault (one in four persistent), an int-state
// fault, or a control fault, with the trap and the watchdog each armed
// at random.
func randomTileSpec(r *rng.Rand, counts fp.OpCounts, f fp.Format) FaultSpec {
	var spec FaultSpec
	switch r.Intn(4) {
	case 0, 1:
		kind := fp.Op(r.Intn(fp.NumOps))
		anyKind := counts.ByOp[kind] == 0 || r.Intn(2) == 0
		of := SampleOpFault(r, counts, f, kind, anyKind, Target(r.Intn(2)))
		if r.Intn(4) == 0 {
			of.Modulo = 1 + r.Uint64n(counts.Total())
		}
		spec.Op = &of
	case 2:
		if counts.IntSites > 0 {
			spec.Op = &OpFault{Index: r.Uint64n(counts.IntSites), Bit: r.Intn(5), Target: TargetIntState}
		}
	case 3:
		cf := SampleControlFault(r, counts)
		spec.Control = &cf
	}
	spec.TrapNonFinite = r.Intn(2) == 0
	if spec.Control != nil || r.Intn(2) == 0 {
		spec.Watchdog = DefaultWatchdogFactor
	}
	return spec
}

func TestTileSkipEquivalenceSampled(t *testing.T) {
	k := kernels.NewLavaMD(2, 2, 9)
	samples := 400
	if testing.Short() {
		samples = 60
	}
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		for _, w := range tileWraps(f) {
			t.Run(fmt.Sprintf("%v/%s", f, w.name), func(t *testing.T) {
				compiled, interpreted := tileRunners(t, k, f, w.key, w.wrap)
				before := mTilesSkipped.Load()
				r := rng.New(0x711E + uint64(f))
				for i := 0; i < samples; i++ {
					checkEquivalent(t, compiled, interpreted, randomTileSpec(r, compiled.Counts(), f), i%5 == 0)
				}
				requireSkips(t, before)
			})
		}
	}
}

// tileProbe is a four-tile OutputKernel built so that each skip rule of
// Env.Tile decides an outcome: its prologue value p feeds every tile,
// each tile runs one Exp (integer sequencing sites under a software
// exp), and tile 1 overflows to +Inf on its way to a finite output.
type tileProbe struct{}

func (tileProbe) Name() string { return "tile-probe" }
func (tileProbe) Key() string  { return "tile-probe" }

func (tileProbe) Inputs(f fp.Format) [][]fp.Bits {
	xs := []float64{0.5, 0.75, 1.25, 1.5}
	in := make([]fp.Bits, len(xs))
	for i, x := range xs {
		in[i] = f.FromFloat64(x)
	}
	return [][]fp.Bits{in}
}

func (p tileProbe) Run(env fp.Env, in [][]fp.Bits) []fp.Bits { return p.RunInto(env, in, nil) }

func (tileProbe) RunInto(env fp.Env, in [][]fp.Bits, out []fp.Bits) []fp.Bits {
	x := in[0]
	if cap(out) < len(x) {
		out = make([]fp.Bits, len(x))
	}
	out = out[:len(x)]
	p := env.Mul(env.FromFloat64(1.5), env.FromFloat64(1.5))
	for t := range x {
		if fp.SkipTile(env, t) {
			continue
		}
		v := env.Exp(env.Mul(p, x[t]))
		if t == 1 {
			// v * MaxFinite overflows; v / +Inf is +0.
			v = env.Div(v, env.Mul(v, env.FromFloat64(env.Format().MaxFinite())))
		}
		out[t] = env.Add(v, p)
	}
	return out
}

// probeTileStart returns the all-operation counter at the start of tile t.
func probeTileStart(r *Runner, t int) uint64 { return r.art.Tiles()[t].Start.Total() }

// TestTileSkipRules drives the probe with one fault per rule, each of
// which an unguarded skip would misclassify, and requires the compiled
// runner to agree with the interpreted one on the outcome the rule
// protects.
func TestTileSkipRules(t *testing.T) {
	f := fp.Single
	shape := fp.ExpShape{Terms: 7, Squarings: 1, IntSites: 1}
	bare := func() (*Runner, *Runner) { return tileRunners(t, tileProbe{}, f, "", nil) }
	soft := func() (*Runner, *Runner) { return tileRunners(t, tileProbe{}, f, shape.Key(), fp.WrapExp(shape)) }
	if c, _ := bare(); !c.art.Tiles()[1].NonFinite {
		t.Fatal("probe tile 1 records no non-finite result")
	}
	lowBit := 3
	cases := []struct {
		name    string
		runners func() (*Runner, *Runner)
		spec    func(c *Runner) FaultSpec
		want    Outcome
	}{
		{
			// A struck prologue value reaches every tile.
			name: "prologue", runners: bare, want: SDC,
			spec: func(*Runner) FaultSpec {
				return FaultSpec{Op: &OpFault{AnyKind: true, Index: 0, Bit: lowBit}}
			},
		},
		{
			// A strike in tile 0 makes the trap live, and tile 1's
			// +Inf then traps.
			name: "trap", runners: bare, want: CrashDUE,
			spec: func(c *Runner) FaultSpec {
				return FaultSpec{Op: &OpFault{AnyKind: true, Index: probeTileStart(c, 0), Bit: lowBit}, TrapNonFinite: true}
			},
		},
		{
			// An aliased operand at tile 2's first operation.
			name: "control", runners: bare, want: SDC,
			spec: func(c *Runner) FaultSpec {
				return FaultSpec{Control: &ControlFault{Class: IndexControl, Site: probeTileStart(c, 2), Bit: 0}, Watchdog: DefaultWatchdogFactor}
			},
		},
		{
			// A corrupted reduction quotient inside tile 2's exp.
			name: "int-site", runners: soft, want: SDC,
			spec: func(c *Runner) FaultSpec {
				return FaultSpec{Op: &OpFault{Index: c.art.Tiles()[2].Start.IntSites, Bit: 0, Target: TargetIntState}}
			},
		},
		{
			// With nothing struck before it, tile 1's +Inf cannot trap:
			// tiles 0, 1 and 3 are skipped.
			name: "trap-not-live", runners: bare, want: SDC,
			spec: func(c *Runner) FaultSpec {
				return FaultSpec{Op: &OpFault{AnyKind: true, Index: probeTileStart(c, 2), Bit: lowBit}, TrapNonFinite: true}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compiled, interpreted := tc.runners()
			spec := tc.spec(compiled)
			ri, abort := interpreted.RunSpec(spec, false)
			if abort != nil || ri.Outcome != tc.want {
				t.Fatalf("%s: interpreted outcome %v (abort %v), want %v", spec.Desc(), ri.Outcome, abort, tc.want)
			}
			checkEquivalent(t, compiled, interpreted, spec, true)
		})
	}
	// Skipped tiles' operations are accounted, not executed: the run
	// executes the prologue and tile 2 only.
	before, opsBefore := mTilesSkipped.Load(), mOps.Load()
	compiled, _ := bare()
	of := OpFault{AnyKind: true, Index: probeTileStart(compiled, 2), Bit: lowBit}
	if _, abort := compiled.RunSpec(FaultSpec{Op: &of, TrapNonFinite: true}, false); abort != nil {
		t.Fatal(abort)
	}
	if got := mTilesSkipped.Load() - before; got != 3 {
		t.Errorf("strike in tile 2: %d tiles skipped, want 3", got)
	}
	tile2 := compiled.art.Tiles()[2]
	if got, want := mOps.Load()-opsBefore, 1+tile2.End.Total()-tile2.Start.Total(); got != want {
		t.Errorf("strike in tile 2: inject_ops advanced %d, want the %d executed operations", got, want)
	}
}
