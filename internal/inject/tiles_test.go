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
// in fact skipped, so the comparison is not vacuous. LavaMD's tiles are
// its (home box, neighbour box) pairs; LavaMD(1,·) has a single one,
// which no fault can leave unreached, so the sweeps use dim 2 and 3.

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
	if tt := compiled.art.Tiles(); tt == nil || tt.Len() < 2 {
		t.Fatalf("%s/%v: fewer than 2 tiles", k.Key(), f)
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

// TestTileSkipEquivalenceEveryIndex sweeps LavaMD(2,1) over every
// operation index, control site and int-state site, and then over every
// bit of every input element: a box pair skips under corrupted inputs
// when the positions, charges and accumulators it names are golden.
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
				before = mTilesSkipped.Load()
				for a, n := range compiled.ArrayLens() {
					for e := 0; e < n; e++ {
						for bit := 0; bit < f.Width(); bit += int(stride) {
							check(FaultSpec{Mem: []MemFault{{Array: a, Elem: e, Bit: bit}}})
						}
					}
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

// randomTileSpecMem is randomTileSpec with every 4th sample (i) a
// memory fault instead.
func randomTileSpecMem(r *rng.Rand, c *Runner, f fp.Format, i int) FaultSpec {
	spec := randomTileSpec(r, c.Counts(), f)
	if i%4 == 0 {
		spec.Op, spec.Control = nil, nil
		spec.Mem = []MemFault{SampleMemFault(r, c.ArrayLens(), f)}
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
					checkEquivalent(t, compiled, interpreted, randomTileSpecMem(r, compiled, f, i), i%5 == 0)
				}
				requireSkips(t, before)
			})
		}
	}
}

// TestTileSkipEquivalenceBoundaryBoxes samples LavaMD(3,2), whose corner,
// edge, face and centre boxes have 8, 12, 18 and 27 neighbours, so the
// home boxes' last pairs fall at varying places and the boxes' tile
// counts differ.
func TestTileSkipEquivalenceBoundaryBoxes(t *testing.T) {
	k := kernels.NewLavaMD(3, 2, 17)
	samples := 200
	if testing.Short() {
		samples = 40
	}
	for _, f := range []fp.Format{fp.Half, fp.Double} {
		for _, w := range tileWraps(f) {
			t.Run(fmt.Sprintf("%v/%s", f, w.name), func(t *testing.T) {
				compiled, interpreted := tileRunners(t, k, f, w.key, w.wrap)
				if n := compiled.art.Tiles().Len(); n != 8*8+12*12+6*18+27 {
					t.Fatalf("LavaMD(3,2): %d tiles, want one per box pair (343)", n)
				}
				before := mTilesSkipped.Load()
				r := rng.New(0xB0C5 + uint64(f))
				for i := 0; i < samples; i++ {
					checkEquivalent(t, compiled, interpreted, randomTileSpecMem(r, compiled, f, i), i%5 == 0)
				}
				requireSkips(t, before)
			})
		}
	}
}

// tileProbe is an OutputKernel built so that each skip rule of
// Env.Tile decides an outcome. Tiles 0-3 read its prologue value p and
// one element of the first input array, which they name: each runs one
// Exp (integer sequencing sites under a software exp), and tile 1
// overflows to +Inf on its way to a finite output. Tiles 4-6 are each a
// multiply-add over its named live-ins from the second input array, and
// tile 5 also reads tile 4's output.
type tileProbe struct{}

// probeExp is the number of the probe's Exp tiles, which precede its
// multiply-add ones.
const probeExp = 4

func (tileProbe) Name() string { return "tile-probe" }
func (tileProbe) Key() string  { return "tile-probe" }

func (tileProbe) Inputs(f fp.Format) [][]fp.Bits {
	enc := func(xs ...float64) []fp.Bits {
		in := make([]fp.Bits, len(xs))
		for i, x := range xs {
			in[i] = f.FromFloat64(x)
		}
		return in
	}
	return [][]fp.Bits{enc(0.5, 0.75, 1.25, 1.5), enc(2, 3, 5)}
}

func (p tileProbe) Run(env fp.Env, in [][]fp.Bits) []fp.Bits { return p.RunInto(env, in, nil) }

func (tileProbe) RunInto(env fp.Env, in [][]fp.Bits, out []fp.Bits) []fp.Bits {
	x, y := in[0], in[1]
	if cap(out) < len(x)+len(y) {
		out = make([]fp.Bits, len(x)+len(y))
	}
	out = out[:len(x)+len(y)]
	p := env.Mul(env.FromFloat64(1.5), env.FromFloat64(1.5))
	for t := range x {
		if _, skip := fp.SkipTile(env, t, []fp.Bits{p, x[t]}, nil); skip {
			continue
		}
		v := env.Exp(env.Mul(p, x[t]))
		if t == 1 {
			// v * MaxFinite overflows; v / +Inf is +0.
			v = env.Div(v, env.Mul(v, env.FromFloat64(env.Format().MaxFinite())))
		}
		out[t] = env.Add(v, p)
	}
	for i := range y {
		t := probeExp + i
		live := []fp.Bits{y[i], y[i]}
		if i == 1 {
			live[0] = out[t-1]
		}
		if v, skip := fp.SkipTile(env, t, live, nil); skip {
			out[t] = v
			continue
		}
		out[t] = env.Add(env.Mul(live[0], live[1]), live[1])
	}
	return out
}

// outProbe is an OutputKernel whose tile 0 writes two values outside
// the output buffer, into a buffer that starts zeroed each run, and
// names them as its outputs. Tile 1 reads them with an input and
// writes one output element; tile 2 reads only inputs and writes the
// other. Each tile is a multiply and an add.
type outProbe struct{}

func (outProbe) Name() string { return "out-probe" }
func (outProbe) Key() string  { return "out-probe" }

func (outProbe) Inputs(f fp.Format) [][]fp.Bits {
	return [][]fp.Bits{
		{f.FromFloat64(0.5), f.FromFloat64(0.75)},
		{f.FromFloat64(2), f.FromFloat64(3), f.FromFloat64(5)},
	}
}

func (p outProbe) Run(env fp.Env, in [][]fp.Bits) []fp.Bits { return p.RunInto(env, in, nil) }

func (outProbe) RunInto(env fp.Env, in [][]fp.Bits, out []fp.Bits) []fp.Bits {
	x, y := in[0], in[1]
	if cap(out) < 2 {
		out = make([]fp.Bits, 2)
	}
	out = out[:2]
	mid := make([]fp.Bits, 2)
	if _, skip := fp.SkipTile(env, 0, x, mid); !skip {
		mid[0] = env.Mul(x[0], x[1])
		mid[1] = env.Add(x[0], x[1])
	}
	live := []fp.Bits{mid[0], mid[1], y[0]}
	if v, skip := fp.SkipTile(env, 1, live, nil); skip {
		out[0] = v
	} else {
		out[0] = env.Add(env.Mul(live[0], live[2]), live[1])
	}
	if v, skip := fp.SkipTile(env, 2, y[1:], nil); skip {
		out[1] = v
	} else {
		out[1] = env.Add(env.Mul(y[1], y[2]), y[1])
	}
	return out
}

// probeTileStart returns the all-operation counter at the start of tile t.
func probeTileStart(r *Runner, t int) uint64 { return r.art.Tiles().Start(t) }

// probeTileEnd returns the all-operation counter at the end of tile t.
func probeTileEnd(r *Runner, t int) uint64 {
	tt := r.art.Tiles()
	return tt.Start(t) + tt.Shape(t).Ops
}

// TestTileSkipRules drives the probe with one fault per rule, each of
// which an unguarded skip would misclassify or mis-skip, and requires
// the compiled runner to agree with the interpreted one on the outcome
// the rule protects and to skip exactly the tiles the rules allow.
func TestTileSkipRules(t *testing.T) {
	f := fp.Single
	shape := fp.ExpShape{Terms: 7, Squarings: 1, IntSites: 1}
	bare := func() (*Runner, *Runner) { return tileRunners(t, tileProbe{}, f, "", nil) }
	outs := func() (*Runner, *Runner) { return tileRunners(t, outProbe{}, f, "", nil) }
	soft := func() (*Runner, *Runner) { return tileRunners(t, tileProbe{}, f, shape.Key(), fp.WrapExp(shape)) }
	if c, _ := bare(); !c.art.Tiles().NonFinite(1) {
		t.Fatal("probe tile 1 records no non-finite result")
	}
	lowBit := 3
	cases := []struct {
		name    string
		runners func() (*Runner, *Runner)
		spec    func(c *Runner) FaultSpec
		want    Outcome
		skipped uint64 // tiles the compiled run skips
	}{
		{
			// A struck prologue value reaches every Exp tile, which
			// names it; the multiply-add ones name golden live-ins.
			name: "prologue", runners: bare, want: SDC, skipped: 3,
			spec: func(*Runner) FaultSpec {
				return FaultSpec{Op: &OpFault{AnyKind: true, Index: 0, Bit: lowBit}}
			},
		},
		{
			// A strike in tile 0 makes the trap live, and tile 1's
			// +Inf then traps.
			name: "trap", runners: bare, want: CrashDUE, skipped: 0,
			spec: func(c *Runner) FaultSpec {
				return FaultSpec{Op: &OpFault{AnyKind: true, Index: probeTileStart(c, 0), Bit: lowBit}, TrapNonFinite: true}
			},
		},
		{
			// An aliased operand at tile 2's first operation.
			name: "control", runners: bare, want: SDC, skipped: 3 + 3,
			spec: func(c *Runner) FaultSpec {
				return FaultSpec{Control: &ControlFault{Class: IndexControl, Site: probeTileStart(c, 2), Bit: 0}, Watchdog: DefaultWatchdogFactor}
			},
		},
		{
			// A corrupted reduction quotient inside tile 2's exp.
			name: "int-site", runners: soft, want: SDC, skipped: 3 + 3,
			spec: func(c *Runner) FaultSpec {
				tt := c.art.Tiles()
				return FaultSpec{Op: &OpFault{Index: tt.Shape(0).IntSites + tt.Shape(1).IntSites, Bit: 0, Target: TargetIntState}}
			},
		},
		{
			// With nothing struck before it, tile 1's +Inf cannot trap.
			// After the strike in tile 2, tiles 3-6 skip on golden
			// live-ins.
			name: "trap-not-live", runners: bare, want: SDC, skipped: 3 + 3,
			spec: func(c *Runner) FaultSpec {
				return FaultSpec{Op: &OpFault{AnyKind: true, Index: probeTileStart(c, 2), Bit: lowBit}, TrapNonFinite: true}
			},
		},
		{
			// Tile 4's struck output is tile 5's first live-in: tile 5
			// must run, and tile 6, whose live-ins match, skips.
			name: "live-in-differs", runners: bare, want: SDC, skipped: 4 + 1,
			spec: func(c *Runner) FaultSpec {
				return FaultSpec{Op: &OpFault{AnyKind: true, Index: probeTileEnd(c, probeExp) - 1, Bit: lowBit}}
			},
		},
		{
			// A strike in tile 5 leaves tile 6's live-ins golden.
			name: "live-ins-match", runners: bare, want: SDC, skipped: 4 + 2,
			spec: func(c *Runner) FaultSpec {
				return FaultSpec{Op: &OpFault{AnyKind: true, Index: probeTileStart(c, probeExp+1), Bit: lowBit}}
			},
		},
		{
			// A corrupted live-in of Exp tile 2: it runs, and every
			// other tile skips.
			name: "memory-exp", runners: bare, want: SDC, skipped: 3 + 3,
			spec: func(*Runner) FaultSpec {
				return FaultSpec{Mem: []MemFault{{Array: 0, Elem: 2, Bit: lowBit}}}
			},
		},
		{
			// A corrupted live-in of tile 6: it runs, and every other
			// tile skips.
			name: "memory-closed", runners: bare, want: SDC, skipped: 4 + 2,
			spec: func(*Runner) FaultSpec {
				return FaultSpec{Mem: []MemFault{{Array: 1, Elem: 2, Bit: lowBit}}}
			},
		},
		{
			// A corrupted live-in of the out-probe's tile 2: tile 0
			// skips and writes its named outputs, whose golden values
			// let tile 1 skip too.
			name: "outputs-written", runners: outs, want: SDC, skipped: 2,
			spec: func(*Runner) FaultSpec {
				return FaultSpec{Mem: []MemFault{{Array: 1, Elem: 2, Bit: lowBit}}}
			},
		},
		{
			// A corrupted live-in of tile 0: it runs and writes its
			// own outputs, which differ, so tile 1 runs; tile 2 skips.
			name: "outputs-own", runners: outs, want: SDC, skipped: 1,
			spec: func(*Runner) FaultSpec {
				return FaultSpec{Mem: []MemFault{{Array: 0, Elem: 0, Bit: lowBit}}}
			},
		},
		{
			// A strike on tile 0's last operation corrupts a named
			// output: tile 1 runs on it, tile 2 skips.
			name: "outputs-struck", runners: outs, want: SDC, skipped: 1,
			spec: func(c *Runner) FaultSpec {
				return FaultSpec{Op: &OpFault{AnyKind: true, Index: probeTileEnd(c, 0) - 1, Bit: lowBit}}
			},
		},
		{
			// A strike in tile 2: tiles 0 and 1 skip on replay
			// induction, tile 0 writing its outputs.
			name: "outputs-before-strike", runners: outs, want: SDC, skipped: 2,
			spec: func(c *Runner) FaultSpec {
				return FaultSpec{Op: &OpFault{AnyKind: true, Index: probeTileStart(c, 2), Bit: lowBit}}
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
			before := mTilesSkipped.Load()
			checkEquivalent(t, compiled, interpreted, spec, true)
			if got := mTilesSkipped.Load() - before; got != tc.skipped {
				t.Errorf("%s: %d tiles skipped, want %d", spec.Desc(), got, tc.skipped)
			}
		})
	}
	// Skipped tiles' operations are accounted, not executed: the run
	// executes the prologue and tile 2 only.
	opsBefore := mOps.Load()
	compiled, _ := bare()
	of := OpFault{AnyKind: true, Index: probeTileStart(compiled, 2), Bit: lowBit}
	if _, abort := compiled.RunSpec(FaultSpec{Op: &of, TrapNonFinite: true}, false); abort != nil {
		t.Fatal(abort)
	}
	if got, want := mOps.Load()-opsBefore, 1+compiled.art.Tiles().Shape(2).Ops; got != want {
		t.Errorf("strike in tile 2: inject_ops advanced %d, want the %d executed operations", got, want)
	}
}

// Hotspot's row updates are closed tiles: they skip after a strike and
// under corrupted inputs whenever the grid and power rows they read are
// golden, so an injected run recomputes only its fault's cone. The
// sweep covers every memory element and bit besides every operation
// index and control site, each bare and with the trap and a tight
// watchdog armed.
func TestHotspotTileSkipEquivalenceEveryIndex(t *testing.T) {
	k := kernels.NewHotspot(5, 3, 8)
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		t.Run(f.String(), func(t *testing.T) {
			compiled, interpreted := tileRunners(t, k, f, "", nil)
			check := func(spec FaultSpec) {
				checkEquivalent(t, compiled, interpreted, spec, true)
				spec.TrapNonFinite, spec.Watchdog = true, 1
				checkEquivalent(t, compiled, interpreted, spec, true)
			}
			before := mTilesSkipped.Load()
			total := compiled.Counts().Total()
			for idx := uint64(0); idx < total; idx++ {
				bit := int(idx) % f.Width()
				for _, target := range []Target{TargetResult, TargetOperand} {
					for _, mod := range []uint64{0, 7} {
						check(FaultSpec{Op: &OpFault{AnyKind: true, Index: idx, Modulo: mod, Bit: bit, Target: target, OperandIdx: int(idx) % 3}})
					}
				}
				for c := ControlClass(0); c < numControlClasses; c++ {
					check(FaultSpec{Control: &ControlFault{Class: c, Site: idx, Bit: int(idx+uint64(c)) % pointerBits}})
				}
			}
			requireSkips(t, before)
			before = mTilesSkipped.Load()
			for a, n := range compiled.ArrayLens() {
				for e := 0; e < n; e++ {
					for bit := 0; bit < f.Width(); bit++ {
						check(FaultSpec{Mem: []MemFault{{Array: a, Elem: e, Bit: bit}}})
					}
				}
			}
			requireSkips(t, before)
		})
	}
}

// TestHotspotTileSkipEquivalenceSampled runs inject-cone's Hotspot size
// under random faults of every class, memory faults included.
func TestHotspotTileSkipEquivalenceSampled(t *testing.T) {
	k := kernels.NewHotspot(16, 8, 12)
	samples := 300
	if testing.Short() {
		samples = 60
	}
	for _, f := range []fp.Format{fp.Half, fp.Single} {
		t.Run(f.String(), func(t *testing.T) {
			compiled, interpreted := tileRunners(t, k, f, "", nil)
			before := mTilesSkipped.Load()
			r := rng.New(0x4075 + uint64(f))
			for i := 0; i < samples; i++ {
				checkEquivalent(t, compiled, interpreted, randomTileSpecMem(r, compiled, f, i), i%5 == 0)
			}
			requireSkips(t, before)
		})
	}
}

// YOLO's three layer stages are closed tiles whose first two name their
// pooled tensor as outputs: a skipped stage writes the golden tensor the
// next one reads, so a fault in conv3's weights runs conv3 alone, and a
// strike in a stage leaves later stages to run or skip on what reaches
// them. The sweep strikes every element of every input array, at one
// drawn bit each, the operations around every stage boundary and
// sampled ones, and control sites at the boundaries, each bare and with
// the trap and the watchdog armed. A live trap checks every operation
// one by one, which makes an armed run cost twenty bare ones, so the
// memory sweep arms every 16th element only; under -short and the
// race detector, whose pass does not need the full sweep, it visits
// every 23rd element and arms every fourth of those, and the race
// detector's pass runs half precision alone.
func TestTileSkipEquivalenceYOLO(t *testing.T) {
	k := kernels.NewYOLO(1006)
	stride, armEvery := 1, 16
	if testing.Short() || raceEnabled {
		stride, armEvery = 23, 4
	}
	formats := []fp.Format{fp.Half, fp.Single, fp.Double}
	if raceEnabled {
		formats = formats[:1]
	}
	for _, f := range formats {
		t.Run(f.String(), func(t *testing.T) {
			compiled, interpreted := tileRunners(t, k, f, "", nil)
			check := func(spec FaultSpec) {
				checkEquivalent(t, compiled, interpreted, spec, false)
				checkEquivalent(t, compiled, interpreted, armed(spec), false)
			}
			r := rng.New(0x9010 + uint64(f))
			before := mTilesSkipped.Load()
			visited := 0
			for a, n := range compiled.ArrayLens() {
				for e := r.Intn(stride); e < n; e += stride {
					spec := FaultSpec{Mem: []MemFault{{Array: a, Elem: e, Bit: r.Intn(f.Width())}}}
					checkEquivalent(t, compiled, interpreted, spec, false)
					if visited%armEvery == 0 {
						checkEquivalent(t, compiled, interpreted, armed(spec), false)
					}
					visited++
				}
			}
			requireSkips(t, before)

			before = mTilesSkipped.Load()
			tt := compiled.art.Tiles()
			counts := compiled.Counts()
			var at []uint64
			for s := 0; s < tt.Len(); s++ {
				first, last := tt.Start(s), tt.Start(s)+tt.Shape(s).Ops-1
				at = append(at, first-1, first, first+1, last-1, last, last+1)
			}
			boundaries := len(at)
			for i := 0; i < 40/stride+8; i++ {
				at = append(at, r.Uint64n(counts.Total()))
			}
			for i, idx := range at {
				if idx >= counts.Total() {
					continue
				}
				bit := r.Intn(f.Width())
				for _, target := range []Target{TargetResult, TargetOperand} {
					check(FaultSpec{Op: &OpFault{AnyKind: true, Index: idx, Bit: bit, Target: target, OperandIdx: int(idx) % 3}})
				}
				if i < boundaries {
					for c := ControlClass(0); c < numControlClasses; c++ {
						spec := FaultSpec{Control: &ControlFault{Class: c, Site: idx, Bit: r.Intn(indexBits)}, Watchdog: DefaultWatchdogFactor}
						checkEquivalent(t, compiled, interpreted, spec, false)
						spec.TrapNonFinite = true
						checkEquivalent(t, compiled, interpreted, spec, false)
					}
				}
			}
			// The leaky ReLU's multiplies on their own counter.
			for i := 0; i < 8; i++ {
				idx := r.Uint64n(counts.ByOp[fp.OpMul])
				check(FaultSpec{Op: &OpFault{Kind: fp.OpMul, Index: idx, Bit: r.Intn(f.Width()), Target: Target(i % 2)}})
			}
			requireSkips(t, before)
		})
	}
}
