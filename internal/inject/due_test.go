package inject

import (
	"errors"
	"math/bits"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
	"mixedrel/internal/telemetry"
)

func TestDUEStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Masked.String(), "masked"},
		{SDC.String(), "SDC"},
		{CrashDUE.String(), "crash-DUE"},
		{HangDUE.String(), "hang-DUE"},
		{Outcome(99).String(), "outcome?"},
		{CauseNone.String(), "none"},
		{CauseSegfault.String(), "segfault"},
		{CauseTrap.String(), "fp-trap"},
		{CauseWatchdog.String(), "watchdog"},
		{DUECause(99).String(), "cause?"},
		{LoopControl.String(), "loop"},
		{IndexControl.String(), "index"},
		{PointerControl.String(), "pointer"},
		{ControlClass(99).String(), "control?"},
		{SiteControl.String(), "control"},
		{ControlFault{Class: IndexControl, Site: 7, Bit: 3}.String(), "control[index site=7 bit=3]"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestOutcomeIsDUE(t *testing.T) {
	for o, want := range map[Outcome]bool{
		Masked: false, SDC: false, CrashDUE: true, HangDUE: true,
	} {
		if o.IsDUE() != want {
			t.Errorf("%v.IsDUE() = %v, want %v", o, o.IsDUE(), want)
		}
	}
}

func TestFaultSpecDesc(t *testing.T) {
	if d := (FaultSpec{}).Desc(); d != "fault-free" {
		t.Errorf("empty spec desc %q", d)
	}
	cf := ControlFault{Class: LoopControl, Site: 9, Bit: 2}
	spec := FaultSpec{
		Mem:           []MemFault{{Array: 1, Elem: 2, Bit: 3}},
		Control:       &cf,
		Watchdog:      4,
		TrapNonFinite: true,
	}
	d := spec.Desc()
	for _, frag := range []string{"mem[", "control[loop site=9 bit=2]", "watchdog=4", "trap"} {
		if !strings.Contains(d, frag) {
			t.Errorf("desc %q missing %q", d, frag)
		}
	}
	// A schedule of two op faults names both, Op first.
	op := OpFault{Kind: fp.OpFMA, Index: 3, Modulo: 1, Bit: 14, Target: TargetResult}
	spec = FaultSpec{Op: &op, Ops: []OpFault{{AnyKind: true, Index: 40, Bit: 2, Width: 2, Target: TargetOperand}}}
	want := "op[kind=FMA any=false idx=3 mod=1 bit=14 w=0 tgt=result] op[kind=ADD any=true idx=40 mod=0 bit=2 w=2 tgt=operand]"
	if d := spec.Desc(); d != want {
		t.Errorf("two-fault desc %q, want %q", d, want)
	}
}

func TestSampleControlFaultBounds(t *testing.T) {
	var counts fp.OpCounts
	counts.ByOp[fp.OpAdd] = 100
	r := rng.New(1)
	for i := 0; i < 500; i++ {
		cf := SampleControlFault(r, counts)
		if cf.Site >= 100 {
			t.Fatalf("site %d out of range", cf.Site)
		}
		max := indexBits
		switch cf.Class {
		case LoopControl:
			max = loopBits
		case PointerControl:
			max = pointerBits
		}
		if cf.Bit < 0 || cf.Bit >= max {
			t.Fatalf("%v bit %d out of range", cf.Class, cf.Bit)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("zero-op control sampling did not panic")
		}
	}()
	SampleControlFault(r, fp.OpCounts{})
}

// TestPointerFaultSegfault: flipping an implemented-address bit far
// above the footprint must fault the access.
func TestPointerFaultSegfault(t *testing.T) {
	r := NewRunner(kernels.NewGEMM(6, 1), fp.Single, "", nil)
	cf := ControlFault{Class: PointerControl, Site: 0, Bit: 47}
	rr, abort := r.RunSpec(FaultSpec{Control: &cf, Watchdog: 4}, false)
	if abort != nil {
		t.Fatalf("abort: %v", abort)
	}
	if rr.Outcome != CrashDUE || rr.Cause != CauseSegfault {
		t.Errorf("pointer bit 47: outcome %v cause %v, want crash-DUE/segfault", rr.Outcome, rr.Cause)
	}
	if !rr.FaultApplied {
		t.Error("crash without FaultApplied")
	}
}

// TestIndexFaultOutOfRangeSegfault: a high index bit leaves the mapped
// footprint.
func TestIndexFaultOutOfRangeSegfault(t *testing.T) {
	r := NewRunner(kernels.NewGEMM(6, 1), fp.Single, "", nil)
	cf := ControlFault{Class: IndexControl, Site: 0, Bit: 31}
	rr, abort := r.RunSpec(FaultSpec{Control: &cf, Watchdog: 4}, false)
	if abort != nil {
		t.Fatalf("abort: %v", abort)
	}
	if rr.Outcome != CrashDUE || rr.Cause != CauseSegfault {
		t.Errorf("index bit 31: outcome %v cause %v, want crash-DUE/segfault", rr.Outcome, rr.Cause)
	}
}

// TestIndexFaultInRangeAliases: a low index bit stays in range and
// aliases another element into the datapath — the run completes.
func TestIndexFaultInRangeAliases(t *testing.T) {
	r := NewRunner(kernels.NewGEMM(6, 1), fp.Single, "", nil)
	cf := ControlFault{Class: IndexControl, Site: 0, Bit: 0}
	rr, abort := r.RunSpec(FaultSpec{Control: &cf, Watchdog: 4}, false)
	if abort != nil {
		t.Fatalf("abort: %v", abort)
	}
	if rr.Outcome.IsDUE() {
		t.Errorf("in-range aliasing classified %v (%v)", rr.Outcome, rr.Cause)
	}
	if !rr.FaultApplied {
		t.Error("aliasing fault not applied")
	}
}

// TestLoopFaultRunawayHang: flipping the top trip-counter bit upward
// re-executes ~2^31 iterations; the watchdog must kill it.
func TestLoopFaultRunawayHang(t *testing.T) {
	r := NewRunner(kernels.NewGEMM(6, 1), fp.Single, "", nil)
	cf := ControlFault{Class: LoopControl, Site: 0, Bit: 31}
	rr, abort := r.RunSpec(FaultSpec{Control: &cf, Watchdog: 4}, false)
	if abort != nil {
		t.Fatalf("abort: %v", abort)
	}
	if rr.Outcome != HangDUE || rr.Cause != CauseWatchdog {
		t.Errorf("runaway loop: outcome %v cause %v, want hang-DUE/watchdog", rr.Outcome, rr.Cause)
	}
}

// TestLoopFaultDownwardTruncates: clearing a set trip-counter bit exits
// the loop early; GEMM's accumulators stay at their initial values, a
// silently wrong (SDC) but complete run.
func TestLoopFaultDownwardTruncates(t *testing.T) {
	r := NewRunner(kernels.NewGEMM(6, 1), fp.Single, "", nil)
	remaining := uint32(r.Counts().Total()) // site 0: all ops remain
	if remaining == 0 {
		t.Fatal("no ops")
	}
	bit := bits.TrailingZeros32(remaining) // set bit -> downward flip
	cf := ControlFault{Class: LoopControl, Site: 0, Bit: bit}
	rr, abort := r.RunSpec(FaultSpec{Control: &cf, Watchdog: 4}, false)
	if abort != nil {
		t.Fatalf("abort: %v", abort)
	}
	if rr.Outcome != SDC {
		t.Errorf("truncated run classified %v (cause %v), want SDC", rr.Outcome, rr.Cause)
	}
	if rr.Cause != CauseNone {
		t.Errorf("completed run carries cause %v", rr.Cause)
	}
}

// TestInjectOpsCountsExecutedOnly: a loop-counter jump charges its
// re-executed operations to the watchdog budget without executing them,
// so inject_ops must count only the operations the run executed — the
// golden count for a jump the budget absorbs, the prefix up to the
// control site for one the watchdog kills.
func TestInjectOpsCountsExecutedOnly(t *testing.T) {
	r := NewRunner(kernels.NewGEMM(6, 1), fp.Single, "", nil)
	golden := r.Counts().Total()
	const site = 40
	remaining := uint32(golden - site)
	small := bits.TrailingZeros32(^remaining) // a clear bit: an upward jump of 2^small
	if uint64(1)<<small > 3*golden {
		t.Fatalf("jump 2^%d would not fit the budget", small)
	}
	for _, tc := range []struct {
		bit     int
		outcome Outcome
		ops     uint64
	}{
		{bit: small, outcome: -1, ops: golden},     // absorbed: the run completes
		{bit: 31, outcome: HangDUE, ops: site + 1}, // runaway: killed at the site
	} {
		cf := ControlFault{Class: LoopControl, Site: site, Bit: tc.bit}
		before := snapshotCounter(t, "inject_ops")
		rr, abort := r.RunSpec(FaultSpec{Control: &cf, Watchdog: DefaultWatchdogFactor}, false)
		if abort != nil {
			t.Fatalf("bit %d: abort: %v", tc.bit, abort)
		}
		if tc.outcome >= 0 && rr.Outcome != tc.outcome || tc.outcome < 0 && rr.Outcome.IsDUE() {
			t.Fatalf("bit %d: outcome %v (%v)", tc.bit, rr.Outcome, rr.Cause)
		}
		if got := snapshotCounter(t, "inject_ops") - before; got != tc.ops {
			t.Errorf("bit %d: inject_ops advanced %d, want the %d executed operations", tc.bit, got, tc.ops)
		}
	}
}

// TestWatchdogBudgetClampedToGolden: a sub-1 factor must not kill a
// fault-free-length run — the budget clamps to the golden op count.
func TestWatchdogBudgetClampedToGolden(t *testing.T) {
	r := NewRunner(kernels.NewGEMM(6, 1), fp.Single, "", nil)
	rr, abort := r.RunSpec(FaultSpec{Watchdog: 0.01}, false)
	if abort != nil {
		t.Fatalf("abort: %v", abort)
	}
	if rr.Outcome != Masked {
		t.Errorf("fault-free run under tiny watchdog classified %v (%v)", rr.Outcome, rr.Cause)
	}
}

// TestTrapFiresAfterCorruption: with the FP trap armed and a memory
// corruption in the spec, the first non-finite result must abort with
// CrashDUE/fp-trap; without any corruption the same result passes
// through (hardware only traps on faulty executions we corrupted).
func TestTrapFiresAfterCorruption(t *testing.T) {
	f := fp.Double
	huge := f.FromFloat64(1e308)

	armed := NewEnv(fp.NewMachine(f))
	armed.resetSpec(FaultSpec{
		Mem:           []MemFault{{Array: 0, Elem: 0, Bit: 62}},
		TrapNonFinite: true,
		Watchdog:      4,
	}, 100, [][]fp.Bits{{huge}})
	abort := exec.Guard(func() { armed.Mul(huge, huge) })
	if abort == nil {
		t.Fatal("overflowing multiply under armed trap did not abort")
	}
	sig, ok := abort.Value.(dueSignal)
	if !ok || sig.outcome != CrashDUE || sig.cause != CauseTrap {
		t.Fatalf("abort %v, want crash-DUE/fp-trap", abort.Value)
	}

	// No corruption anywhere: the trap must stay quiet even for
	// non-finite results (the golden computation may legitimately
	// overflow).
	quiet := NewEnv(fp.NewMachine(f))
	quiet.resetSpec(FaultSpec{TrapNonFinite: true, Watchdog: 4}, 100, nil)
	if abort := exec.Guard(func() { quiet.Mul(huge, huge) }); abort != nil {
		t.Fatalf("trap fired without a corruption: %v", abort.Value)
	}
}

// TestTrapNonFiniteEndToEnd: a memory fault flipping the top exponent
// bit of a 1.0 input makes it non-finite; the first multiply touching
// it must be trapped and the run classified CrashDUE/fp-trap.
func TestTrapNonFiniteEndToEnd(t *testing.T) {
	f := fp.Double
	one := f.FromFloat64(1)
	// Find a micro kernel whose input set contains 1.0 (seeds are small
	// random integers, so scan construction seeds deterministically).
	var k kernels.Kernel
	elem := -1
	for s := uint64(1); s < 500 && elem < 0; s++ {
		cand := kernels.NewMicro(kernels.MicroMUL, 2, 30, s)
		for i, v := range cand.Inputs(f)[0] {
			if v == one {
				k, elem = cand, i
				break
			}
		}
	}
	if elem < 0 {
		t.Fatal("no micro kernel with a 1.0 input found")
	}
	r := NewRunner(k, f, "", nil)
	mf := MemFault{Array: 0, Elem: elem, Bit: 62} // 1.0 -> exponent 0x7ff -> Inf
	rr, abort := r.RunSpec(FaultSpec{Mem: []MemFault{mf}, TrapNonFinite: true, Watchdog: 4}, false)
	if abort != nil {
		t.Fatalf("abort: %v", abort)
	}
	if rr.Outcome != CrashDUE || rr.Cause != CauseTrap {
		t.Errorf("outcome %v cause %v, want crash-DUE/fp-trap", rr.Outcome, rr.Cause)
	}
}

// TestCampaignControlSite: a pure control-site campaign must classify
// every sample and observe behavioral DUEs.
func TestCampaignControlSite(t *testing.T) {
	c := Campaign{
		Kernel: kernels.NewGEMM(8, 3), Format: fp.Single,
		Faults: 150, Seed: 7,
		Sites:         []Site{SiteControl},
		TrapNonFinite: true,
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SDCs + res.Masked + res.CrashDUEs + res.HangDUEs; got != res.Classified() {
		t.Errorf("classified %d samples, want %d", got, res.Classified())
	}
	if len(res.Aborted) != 0 {
		t.Errorf("%d aborted samples", len(res.Aborted))
	}
	if res.DUEs() == 0 {
		t.Error("control-fault campaign observed no DUEs")
	}
	if res.PDUE <= 0 || res.PDUE > 1 {
		t.Errorf("PDUE %v out of range", res.PDUE)
	}
	if res.PVF+res.PDUE > 1+1e-12 {
		t.Errorf("PVF %v + PDUE %v exceeds 1", res.PVF, res.PDUE)
	}
}

// panicky wraps a kernel with a tripwire that panics whenever its
// inputs were corrupted — a stand-in for a simulator bug in one sample.
type panicky struct{ inner kernels.Kernel }

func (p panicky) Name() string                   { return p.inner.Name() + "-panicky" }
func (p panicky) Key() string                    { return "" } // opt out of artifact caching
func (p panicky) Inputs(f fp.Format) [][]fp.Bits { return p.inner.Inputs(f) }
func (p panicky) Run(env fp.Env, in [][]fp.Bits) []fp.Bits {
	pristine := p.inner.Inputs(env.Format())
	for a := range in {
		for i := range in[a] {
			if in[a][i] != pristine[a][i] {
				panic("boom: corrupted input")
			}
		}
	}
	return p.inner.Run(env, in)
}

// TestCampaignPanicIsolation: a panicking sample must become an
// aborted-sample diagnostic, not kill the campaign.
func TestCampaignPanicIsolation(t *testing.T) {
	c := Campaign{
		Kernel: panicky{kernels.NewGEMM(4, 3)}, Format: fp.Single,
		Faults: 60, Seed: 5,
		Sites: []Site{SiteOperand, SiteMemory},
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aborted) == 0 {
		t.Fatal("no aborted samples despite a panicking kernel")
	}
	if len(res.Aborted) == res.Faults {
		t.Fatal("every sample aborted; operand-fault samples should classify")
	}
	if got := res.SDCs + res.Masked + res.CrashDUEs + res.HangDUEs; got != res.Classified() {
		t.Errorf("classified %d, want %d", got, res.Classified())
	}
	for _, ab := range res.Aborted {
		if !strings.Contains(ab.Panic, "boom") {
			t.Errorf("aborted sample %d panic %q", ab.Index, ab.Panic)
		}
		if !strings.Contains(ab.Fault, "mem[") {
			t.Errorf("aborted sample %d fault %q, want a memory fault", ab.Index, ab.Fault)
		}
		if ab.Seed != 0 {
			t.Errorf("sequential-mode abort carries seed %#x", ab.Seed)
		}
		if ab.Index < 0 || ab.Index >= res.Faults {
			t.Errorf("aborted index %d out of range", ab.Index)
		}
	}

	// Parallel mode: the diagnostic must carry the per-sample replay
	// seed, and replaying it must re-create the same fault draw.
	c.Workers = 2
	res2, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Aborted) == 0 {
		t.Fatal("parallel campaign lost its aborted samples")
	}
	for _, ab := range res2.Aborted {
		if ab.Seed == 0 {
			t.Errorf("parallel abort %d without replay seed", ab.Index)
		}
		if want := exec.SampleSeed(c.Seed, ab.Index); ab.Seed != want {
			t.Errorf("abort %d seed %#x, want %#x", ab.Index, ab.Seed, want)
		}
	}
}

// snapshotCounter reads one process-wide telemetry counter by name.
func snapshotCounter(t *testing.T, name string) uint64 {
	t.Helper()
	for _, mv := range telemetry.Snapshot() {
		if mv.Name == name {
			return mv.Value
		}
	}
	t.Fatalf("counter %q not registered", name)
	return 0
}

// TestGuardPanicCounterExactlyOnce: under a high worker count, each
// panicking sample must increment the guard's panic counter exactly
// once — the recover happens in exec.Guard on the worker goroutine, so
// a sample that panics and is re-signalled through the scheduler must
// not be double-counted. Counting dueSignal recoveries is by design
// (see internal/exec/telemetry.go), so the campaign disables traps and
// watchdogs: with a plainly panicking kernel the counter delta equals
// the aborted-sample count plus the classified crash/hang DUEs (zero
// here).
func TestGuardPanicCounterExactlyOnce(t *testing.T) {
	c := Campaign{
		Kernel: panicky{kernels.NewGEMM(4, 3)}, Format: fp.Single,
		Faults: 80, Seed: 11,
		Sites:   []Site{SiteOperand, SiteMemory},
		Workers: 8,
	}
	before := snapshotCounter(t, "exec_guard_panics")
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aborted) == 0 {
		t.Fatal("no aborted samples despite a panicking kernel")
	}
	if res.CrashDUEs != 0 || res.HangDUEs != 0 {
		t.Fatalf("unexpected DUEs (%d crash, %d hang) in a trap-free campaign",
			res.CrashDUEs, res.HangDUEs)
	}
	delta := snapshotCounter(t, "exec_guard_panics") - before
	if got, want := delta, uint64(len(res.Aborted)); got != want {
		t.Errorf("guard panic counter advanced %d, want exactly %d (one per aborted sample)", got, want)
	}
	for _, ab := range res.Aborted {
		if want := exec.SampleSeed(c.Seed, ab.Index); ab.Seed != want {
			t.Errorf("abort %d seed %#x, want replay seed %#x", ab.Index, ab.Seed, want)
		}
	}
}

// TestCampaignCheckpointResume: an interrupted-then-resumed campaign
// must produce a result identical to an uninterrupted checkpointed run
// AND to a plain parallel run (which uses the same per-sample streams).
func TestCampaignCheckpointResume(t *testing.T) {
	base := Campaign{
		Kernel: kernels.NewGEMM(6, 3), Format: fp.Single,
		Faults: 24, Seed: 7,
		Sites:         []Site{SiteOperand, SiteMemory, SiteControl},
		TrapNonFinite: true,
	}
	dir := t.TempDir()

	// Interrupted run: at most 9 new samples per invocation.
	var resumed *Result
	for i := 0; ; i++ {
		c := base
		c.Checkpoint = &exec.Checkpoint{Path: filepath.Join(dir, "a.ckpt"), Limit: 9, Every: 4}
		res, err := c.Run()
		if err == nil {
			resumed = res
			break
		}
		if !errors.Is(err, exec.ErrPartial) {
			t.Fatal(err)
		}
		if i > 10 {
			t.Fatal("campaign never completed")
		}
	}

	// Uninterrupted checkpointed run.
	c := base
	c.Checkpoint = &exec.Checkpoint{Path: filepath.Join(dir, "b.ckpt")}
	oneShot, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, oneShot) {
		t.Errorf("resumed result differs from uninterrupted run:\n%+v\nvs\n%+v", resumed, oneShot)
	}

	// Plain parallel run: same (seed, index) stream derivation.
	c = base
	c.Workers = 2
	parallel, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, parallel) {
		t.Errorf("checkpointed result differs from parallel run:\n%+v\nvs\n%+v", resumed, parallel)
	}
}

// FuzzNonFinitePropagation: NaN/Inf operands must flow identically
// through the scalar and batch injection paths, whatever the armed
// fault — batch decomposition may not change non-finite semantics.
func FuzzNonFinitePropagation(f *testing.F) {
	f.Add(uint64(0x7ff0000000000000), uint64(0xfff8000000000000), uint64(12), 5) // +Inf, NaN
	f.Add(uint64(0xfff0000000000000), uint64(0x3ff0000000000000), uint64(3), 62) // -Inf, 1.0
	f.Add(uint64(0x7ff0000000000001), uint64(0x0000000000000001), uint64(0), 51) // sNaN, denormal
	f.Fuzz(func(t *testing.T, aBits, bBits uint64, idx uint64, bit int) {
		format := fp.Double
		fault := OpFault{
			AnyKind: true,
			Index:   idx % 64,
			Bit:     ((bit % 64) + 64) % 64,
			Target:  TargetResult,
		}
		mk := func(n int) []fp.Bits {
			out := make([]fp.Bits, n)
			for i := range out {
				switch i % 4 {
				case 0:
					out[i] = fp.Bits(aBits)
				case 1:
					out[i] = fp.Bits(bBits)
				default:
					out[i] = format.FromFloat64(0.5 + float64(i))
				}
			}
			return out
		}
		a, b, c := mk(9), mk(9), mk(3)

		run := func(env fp.Env) []fp.Bits {
			var out []fp.Bits
			out = append(out, fp.DotFMA(env, env.FromFloat64(0), a, b))
			dst := append([]fp.Bits(nil), a...)
			fp.AXPY(env, dst, b[1], b)
			out = append(out, dst...)
			grid := make([]fp.Bits, 9)
			fp.GemmFMA(env, grid, c, a, b, 3, 3, 3)
			out = append(out, grid...)
			out = append(out, env.Div(a[0], b[1]), env.Sqrt(a[1]))
			return out
		}

		be := NewEnv(fp.NewMachine(format), fault)
		outBatch := run(be)
		se := NewEnv(fp.NewMachine(format), fault)
		outScalar := run(noBatch{se})

		if len(outBatch) != len(outScalar) {
			t.Fatalf("lengths differ: %d vs %d", len(outBatch), len(outScalar))
		}
		for i := range outBatch {
			if outBatch[i] != outScalar[i] {
				t.Fatalf("output %d: batch %#x != scalar %#x (a=%#x b=%#x fault=%+v)",
					i, outBatch[i], outScalar[i], aBits, bBits, fault)
			}
		}
		if be.Applied() != se.Applied() {
			t.Fatalf("applied: batch %d != scalar %d", be.Applied(), se.Applied())
		}
	})
}
