// Package inject is the software fault injector — the role CAROL-FI
// plays in the paper. It perturbs a single execution of a kernel with
// single-bit flips and classifies the outcome against the fault-free
// golden output.
//
// Three fault sites are modeled, mirroring both CAROL-FI's
// variable/register flips and the beam's physical strike locations:
//
//   - operation faults: the result of one dynamic arithmetic operation
//     is corrupted (a strike in functional-unit logic);
//   - operand faults: one input of one dynamic operation is corrupted
//     (a strike in a register feeding the datapath);
//   - memory faults: one element of an input array is corrupted before
//     the run (a strike in cache/BRAM/main-memory-resident data).
//
// Operation and operand faults can also be made persistent with a
// modulo: every dynamic operation executed by the same hardware instance
// (op index ≡ Index mod Modulo) is corrupted identically. That is the
// FPGA configuration-memory fault model: a broken LUT keeps producing
// the same wrong bit until the bitstream is scrubbed.
package inject

import (
	"slices"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/traceir"
)

// Target selects which value of the matched operation is corrupted.
type Target int

const (
	// TargetResult flips a bit of the operation's result (ALU fault).
	TargetResult Target = iota
	// TargetOperand flips a bit of one input operand (register fault).
	// The operand is OperandIdx modulo the operation's arity.
	TargetOperand
	// TargetIntState flips a low bit of an integer sequencing decision
	// inside a software routine (a corrupted table index or shift
	// count); Index counts decision sites, Bit is taken modulo 5.
	TargetIntState
)

func (t Target) String() string {
	switch t {
	case TargetResult:
		return "result"
	case TargetOperand:
		return "operand"
	case TargetIntState:
		return "int-state"
	}
	return "target?"
}

// OpFault describes a single-bit corruption of dynamic operation(s).
type OpFault struct {
	// Kind restricts matching to one operation kind unless AnyKind.
	Kind    fp.Op
	AnyKind bool
	// Index is the dynamic index of the struck operation, counted over
	// all operations (AnyKind) or over operations of Kind.
	Index uint64
	// Modulo, when nonzero, makes the fault persistent: every matching
	// operation whose counter ≡ Index (mod Modulo) is corrupted. This
	// models a corrupted hardware instance in a time-multiplexed
	// datapath (FPGA configuration faults).
	Modulo uint64
	// Bit is the flipped bit position within the format width.
	Bit int
	// Width is the number of adjacent bits flipped starting at Bit
	// (wrapping within the format) — a multi-bit upset. Zero means 1.
	Width int
	// Target selects result or operand; OperandIdx picks which operand
	// (modulo arity) for TargetOperand.
	Target     Target
	OperandIdx int
}

// MemFault describes a corruption of an input array element applied
// before the run: Width adjacent bits starting at Bit (a single-bit
// upset when Width <= 1).
type MemFault struct {
	Array int // input array index (modulo the number of arrays)
	Elem  int // element index (modulo the array length)
	Bit   int // first bit position within the format width
	Width int // adjacent bits flipped; 0 means 1
}

// Env wraps an fp.Env and applies a schedule of OpFaults, all of one
// run's. It implements fp.Env.
type Env struct {
	inner   fp.Env
	all     uint64
	byKind  [fp.NumOps]uint64
	intCtr  uint64
	applied uint64 // number of corruptions performed

	// The quiet horizon: while all <= quiet and byKind[k] <= kindAt[k]
	// (counters taken after the current operation's increment), no
	// strike, watchdog trip, control strike, skip or pending operand can
	// touch the operation, so it runs on the inlined fast path of its
	// method. quiet gates everything counted over all operations (an
	// AnyKind strike, the watchdog budget, the armed control site, and
	// skip mode or a pending operand, which pin it to 0); kindAt gates a
	// Kind-specific strike (each the nearest over the schedule). The first
	// operation past a gate takes the outlined slow path, which matches it
	// exactly and recomputes both gates (rearm). A quiet operation
	// therefore costs one counter tick and one compare, however many
	// faults and DUE hooks are armed.
	quiet  uint64
	kindAt [fp.NumOps]uint64

	// faults is the run's schedule, one entry per op fault (merged
	// where they strike the same operations), in a slice reused across
	// runs. Entries that strike one operation compose by XOR of their
	// masks, on its operands and on its result.
	faults []entry

	// replay, when non-nil, is the fault-free per-operation result trace
	// of this configuration (exec.Artifacts.Results). Until the first
	// corruption is applied every operation's operands are bit-identical
	// to the fault-free run's — by induction over the operation stream —
	// so its result is served from the trace instead of being recomputed.
	// Callers must leave replay nil when inputs were perturbed before the
	// run (memory faults), which breaks that induction.
	replay []fp.Bits

	// prog, when non-nil, is the compiled trace program over the same
	// result stream (exec.Artifacts.Prog). Where replay's induction does
	// not reach — after the corruption, and in memory-fault runs from
	// operation zero — the program serves any batch, and any scalar
	// operation of a traceir.ScalarServed kind, whose kind and operand
	// bits compare equal to the recorded ones. A result is a
	// pure function of (kind, operand bits, format), so a compare hit is
	// exact unconditionally: no induction is needed, and the fault-
	// dependent cone falls out as exactly the operations whose compares
	// miss and recompute through the inner machine. cur is the program's
	// region lookup state, reset per run.
	prog *traceir.Program
	cur  traceir.Cursor

	// Per-run serve statistics, accumulated as plain fields (the hot
	// path must not touch atomics or allocate — hotalloc-enforced) and
	// flushed into the process-wide telemetry counters by the runner
	// once per sample. Never read by classification.
	statReplayed uint64 // operations served by replay induction
	statServed   uint64 // operations served by compiled compare-serving
	statJumped   uint64 // operations a loop-counter jump or a skipped tile added to all without executing them

	// Behavioral-DUE state, armed per run by resetSpec. due records
	// whether any hook is armed; the hooks themselves reach operations
	// through the quiet horizon (and trap through duePost).
	due        bool
	ctl        ControlFault
	ctlArmed   bool    // control fault not yet consumed
	ctlPending bool    // next operation's first operand is replaced...
	ctlVal     fp.Bits // ...by this aliased/misaligned loaded word
	skip       bool    // early loop exit: remaining operations pass through
	budget     uint64  // watchdog op budget (0 = disabled)
	goldenOps  uint64  // golden dynamic op count of the configuration
	trap       bool    // NaN/Inf trap armed
	trapAll    bool    // trap from op 0 (inputs corrupted pre-run)
	mem        [][]fp.Bits
	memTotal   uint64 // flat element count of mem

	// tiles, when non-nil, is the fault-free run's output tile table
	// (exec.Artifacts.Tiles), installed with the output buffer already
	// holding the golden output. Tile then skips each tile no fault or
	// hook can reach (see Tile); statTiles counts the tiles skipped,
	// flushed with the serve statistics above.
	tiles     *exec.TileTable
	statTiles uint64
}

// entry is one op fault of the schedule with its per-run state.
type entry struct {
	fault OpFault

	// at is the next strike: the first value of its counter (counter)
	// not yet passed at the last rearm that the fault strikes, or noStrike.
	// Every operation between two rearms lies before it, so struck
	// compares against it, and rearm moves it one Modulo step at a time
	// (strikeOn, for a scheduled fault, as many as it records).
	at uint64

	// mask is the entry's struck bits, FlipBits of zero (XORed over its
	// merged faults): every corruption it applies is one XOR with it.
	mask fp.Bits
}

// NewEnv wraps inner with a schedule of the given operation faults.
func NewEnv(inner fp.Env, faults ...OpFault) *Env {
	e := &Env{inner: inner}
	e.reset(nil, faults)
	return e
}

// Applied returns how many corruptions were performed (0 means every
// fault index was beyond the executed operation count).
func (e *Env) Applied() uint64 { return e.applied }

// noStrike is an entry's next strike when it cannot strike again.
const noStrike = ^uint64(0)

// rearm recomputes the quiet horizon from the current counters and DUE
// state. It runs after every slow-path operation, so it sees every event
// that moves a gate: a strike (a Modulo fault's next instance), the
// control strike and its effects (including a loop counter's jump of
// all), and a consumed pending operand. It first moves every entry's
// next strike past the counters, even in skip mode, where every
// operation takes the slow path and struck still reads it.
//
//mixedrelvet:hotpath re-arms the quiet horizon after every slow-path operation
func (e *Env) rearm() {
	for i := range e.faults {
		e.pass(&e.faults[i])
	}
	for k := range e.kindAt {
		e.kindAt[k] = noStrike
	}
	if e.skip || e.ctlPending {
		e.quiet = 0
		return
	}
	e.quiet = ^uint64(0)
	if e.budget > 0 {
		e.quiet = e.budget
	}
	if e.ctlArmed && e.ctl.Site >= e.all && e.ctl.Site < e.quiet {
		e.quiet = e.ctl.Site
	}
	for i := range e.faults {
		s := &e.faults[i]
		if !s.fault.AnyKind {
			e.kindAt[s.fault.Kind] = min(e.kindAt[s.fault.Kind], s.at)
		} else if s.at < e.quiet {
			e.quiet = s.at
		}
	}
}

// counter returns the counter s strikes on: all for an AnyKind fault,
// its kind's otherwise.
func (e *Env) counter(s *entry) uint64 {
	if s.fault.AnyKind {
		return e.all
	}
	return e.byKind[s.fault.Kind]
}

// pass moves s's next strike on once its counter has passed it: a
// one-shot fault is spent, and a persistent one's next instance is one
// Modulo step on, unless a loop counter's jump of all skipped several.
func (e *Env) pass(s *entry) {
	at, ctr := s.at, e.counter(s)
	if at >= ctr {
		return
	}
	switch m := s.fault.Modulo; {
	case m == 0:
		s.at = noStrike
	case ctr-at <= m:
		s.at = at + m
	default:
		s.at = ctr + (at%m+m-ctr%m)%m
	}
}

// tick counts one dynamic operation of the given kind and reports
// whether it lies inside the quiet horizon, i.e. can take the fast path.
func (e *Env) tick(kind fp.Op) bool {
	e.all++
	e.byKind[kind]++
	return e.all <= e.quiet && e.byKind[kind] <= e.kindAt[kind]
}

// FlipBits flips width adjacent bits of b starting at position bit,
// wrapping within format f's width. width <= 1 flips a single bit.
func FlipBits(f fp.Format, b fp.Bits, bit, width int) fp.Bits {
	if width < 1 {
		width = 1
	}
	w := f.Width()
	for i := 0; i < width; i++ {
		b = f.FlipBit(b, (bit+i)%w)
	}
	return b
}

// struck reports whether entry s strikes the operation of the given
// kind that tick just counted (its counter before the increment).
func (e *Env) struck(s *entry, kind fp.Op) bool {
	ctr := e.all - 1
	if !s.fault.AnyKind {
		if kind != s.fault.Kind {
			return false
		}
		ctr = e.byKind[kind] - 1
	}
	return ctr == s.at
}

// strikes returns how many entries strike the operation tick just
// counted and the XOR of their masks on its operands a, b, c (m[0..2])
// and on its result (m[3]).
func (e *Env) strikes(kind fp.Op) (m [4]fp.Bits, n uint64) {
	for i := range e.faults {
		s := &e.faults[i]
		if !e.struck(s, kind) {
			continue
		}
		n++
		j := 3
		if s.fault.Target == TargetOperand {
			j = operand(kind, s.fault.OperandIdx)
		}
		m[j] = fp.FlipMask(m[j], s.mask)
	}
	return m, n
}

// operand returns the operand slot (0, 1, 2 for a, b, c) that idx picks
// on an operation of the kind: idx modulo the kind's arity.
func operand(kind fp.Op, idx int) int {
	switch kind {
	case fp.OpSqrt, fp.OpExp:
		return 0
	case fp.OpFMA:
		if r := idx % 3; r == 0 || r == 1 {
			return r
		}
		return 2
	}
	if idx%2 == 0 {
		return 0
	}
	return 1
}

// slow executes an operation that tick placed past the quiet horizon,
// with the exact per-operation semantics: strike matching over the
// schedule, the watchdog and control-state hooks, serving, corruption,
// skip mode and the trap. It then re-arms the horizon. Unused operand
// slots are ignored per the kind's arity.
//
// Its first branch is the struck-result exit, taken when the strikes on
// operations of this kind are fixed in advance (scheduled) and this
// operation is struck: the operation is then its inner compute
// and one XOR with the fault's mask, and the re-arm reduces to moving
// the strike one Modulo step on (strikeOn).
//
//mixedrelvet:hotpath outlined per-operation slow path of the injection fast path
func (e *Env) slow(kind fp.Op, a, b, c fp.Bits) fp.Bits {
	if e.scheduled(kind) && e.struck(&e.faults[0], kind) {
		e.strikeOn(1)
		return fp.FlipMask(e.compute(kind, a, b, c), e.faults[0].mask)
	}
	m, n := e.strikes(kind)
	if e.budget > 0 && e.all > e.budget {
		panic(dueSignal{outcome: HangDUE, cause: CauseWatchdog})
	}
	if e.ctlArmed && e.all-1 == e.ctl.Site {
		e.ctlArmed = false
		e.applyControl()
	}
	res := e.execute(kind, m, n, a, b, c)
	e.rearm()
	return res
}

// scheduled reports whether the strikes on operations of the given kind
// are fixed in advance: the schedule is one entry, a persistent (Modulo)
// result fault that matches the kind, in a run with no DUE hook armed. A
// result strike is then all that can gate such an operation, and none of
// the hooks can act on it: there is no watchdog, control site, skip
// mode, pending operand or trap, and a struck result is never served. So
// every operation whose counter is ≡ Index (mod Modulo) is its inner
// compute followed by one XOR with the fault's mask, and every other one
// is plain compute: every FPGA configuration fault, alone or accumulated
// on MxM. The struck-result exit and GemmFMA's struck grid take it here.
func (e *Env) scheduled(kind fp.Op) bool {
	if e.due || len(e.faults) != 1 {
		return false
	}
	f := &e.faults[0].fault
	return f.Target == TargetResult && f.Modulo > 0 && (f.AnyKind || f.Kind == kind)
}

// strikeOn records n strikes of the scheduled fault, the next n
// instances from its next strike on: the corruption count grows by n,
// and the strike and the one gate it sets move n Modulo steps on.
func (e *Env) strikeOn(n uint64) {
	s := &e.faults[0]
	e.applied += n
	s.at += n * s.fault.Modulo
	if s.fault.AnyKind {
		e.quiet = s.at
	} else {
		e.kindAt[s.fault.Kind] = s.at
	}
}

// execute is the body of a slow-path operation after its hooks ran.
func (e *Env) execute(kind fp.Op, m [4]fp.Bits, n uint64, a, b, c fp.Bits) fp.Bits {
	if n == 0 {
		if res, ok := e.served(kind, a, b, c); ok {
			return res
		}
	}
	e.applied += n
	a, b, c = fp.FlipMask(a, m[0]), fp.FlipMask(b, m[1]), fp.FlipMask(c, m[2])
	a, skipped := e.duePre(a)
	var res fp.Bits
	switch {
	case skipped && kind == fp.OpFMA:
		// A skipped FMA passes its accumulator through: the multiply-add
		// contribution of the skipped iteration is simply lost.
		res = c
	case skipped:
		res = a
	default:
		res = e.compute(kind, a, b, c)
	}
	return e.duePost(fp.FlipMask(res, m[3]))
}

// compute runs one operation through the inner environment.
func (e *Env) compute(kind fp.Op, a, b, c fp.Bits) fp.Bits {
	switch kind {
	case fp.OpAdd:
		return e.inner.Add(a, b)
	case fp.OpSub:
		return e.inner.Sub(a, b)
	case fp.OpMul:
		return e.inner.Mul(a, b)
	case fp.OpDiv:
		return e.inner.Div(a, b)
	case fp.OpFMA:
		return e.inner.FMA(a, b, c)
	case fp.OpSqrt:
		return e.inner.Sqrt(a)
	}
	return e.inner.Exp(a)
}

// replayed reports whether the current operation — already counted by
// tick, and not struck — can be served from the fault-free result
// trace, and returns its recorded result. It can when a trace is
// installed and no corruption has been applied yet: every operand is
// then bit-identical to the fault-free run's, so the recorded result is
// exact. This skips the decode/compute/round cost of the whole pre-fault
// prefix, which dominates campaign time (the struck index is uniform
// over the operation stream, so the prefix is half of it on average, and
// all of it when the fault index exceeds the executed count).
func (e *Env) replayed() (fp.Bits, bool) {
	if e.applied != 0 || uint64(len(e.replay)) < e.all {
		return 0, false
	}
	e.statReplayed++
	return e.replay[e.all-1], true
}

// served reports whether the current operation — already counted by
// tick, and not struck — can be answered without computing it, and
// returns the result. Two mechanisms stack:
//
//   - replay induction (replayed): position-based, exact while nothing
//     has been corrupted yet;
//   - compiled compare-serving, for the traceir.ScalarServed kinds only
//     (Div, Sqrt, Exp; the program keeps no operands for the others):
//     the trace program serves the operation when its kind and operand
//     bits compare equal to the recorded stream at this position. A result is a pure function of (kind,
//     operand bits, format), so a compare hit is exact unconditionally
//     — after the corruption, under pre-run-corrupted inputs, even if
//     control flow shifted the stream position: a miss merely costs a
//     recompute. This is what partitions the post-fault suffix into
//     the fault-dependent cone (compares miss, softfloat recomputes)
//     and the fault-independent rest (served from the trace).
//
// Compare-serving is bypassed whenever the operation's semantics
// differ from plain compute: skip mode (the body is bypassed) or a
// pending control-corrupted operand. The NaN/Inf trap applies to served
// results exactly as to computed ones.
func (e *Env) served(kind fp.Op, a, b, c fp.Bits) (fp.Bits, bool) {
	if res, ok := e.replayed(); ok {
		return res, true
	}
	if e.prog == nil || e.skip || e.ctlPending || !traceir.ScalarServed(kind) {
		return 0, false
	}
	res, ok := e.prog.ServeScalar(&e.cur, e.all-1, kind, a, b, c)
	if !ok {
		return 0, false
	}
	e.statServed++
	return e.duePost(res), true
}

// reset re-arms e for a fresh run with the schedule of op (when non-nil)
// and ops, clearing every counter. With no fault the environment passes
// all arithmetic through untouched.
func (e *Env) reset(op *OpFault, ops []OpFault) {
	e.faults = e.faults[:0]
	if op != nil {
		e.schedule(*op)
	}
	for _, f := range ops {
		e.schedule(f)
	}
	e.all = 0
	e.byKind = [fp.NumOps]uint64{}
	e.intCtr = 0
	e.applied = 0
	e.cur = traceir.Cursor{}
	e.statReplayed = 0
	e.statServed = 0
	e.statJumped = 0
	e.statTiles = 0
	e.tiles = nil
	e.due = false
	e.ctlArmed = false
	e.ctlPending = false
	e.skip = false
	e.budget = 0
	e.goldenOps = 0
	e.trap = false
	e.trapAll = false
	e.mem = nil
	e.memTotal = 0
	e.rearm()
}

// schedule adds f to the schedule, its first strike Index reduced modulo
// a persistent fault's Modulo (an int-state fault strikes through
// IntDecision only). An entry that strikes exactly the same operations
// (the same fault but for its bits, at the same first strike) takes f's
// bits into its mask instead: XOR composes them.
func (e *Env) schedule(f OpFault) {
	mask, at := FlipBits(e.inner.Format(), 0, f.Bit, f.Width), noStrike
	if f.Target == TargetOperand || f.Target == TargetResult {
		at = f.Index
		if f.Modulo > 0 {
			at %= f.Modulo
		}
	}
	for i := range e.faults {
		s, g := &e.faults[i], e.faults[i].fault
		g.Index, g.Bit, g.Width = f.Index, f.Bit, f.Width
		if at != noStrike && s.at == at && g == f {
			s.mask = fp.FlipMask(s.mask, mask)
			return
		}
	}
	e.faults = append(e.faults, entry{fault: f, at: at, mask: mask})
}

// resetSpec re-arms e for a fresh run with the full fault
// specification: the schedule of operation faults plus the behavioral-DUE
// machinery (control-state fault, watchdog budget, FP trap). goldenOps
// is the configuration's fault-free dynamic operation count; mem is the
// run's (possibly corrupted) input encoding, which index/pointer
// corruption reads through.
func (e *Env) resetSpec(spec FaultSpec, goldenOps uint64, mem [][]fp.Bits) {
	e.reset(spec.Op, spec.Ops)
	e.goldenOps = goldenOps
	if spec.Control != nil {
		e.ctl = *spec.Control
		e.ctlArmed = true
	}
	if spec.Watchdog > 0 {
		b := uint64(spec.Watchdog * float64(goldenOps))
		if b < goldenOps {
			// The budget must cover the golden stream itself or a
			// fault-free-length run would trip the watchdog.
			b = goldenOps
		}
		e.budget = b
	}
	e.trap = spec.TrapNonFinite
	// With inputs corrupted before the run the trap is live from the
	// first operation; otherwise it arms at the first in-stream
	// corruption (a fault-free prefix cannot raise a spurious trap).
	e.trapAll = e.trap && len(spec.Mem) > 0
	e.mem = mem
	for _, arr := range mem {
		e.memTotal += uint64(len(arr))
	}
	e.due = e.ctlArmed || e.budget > 0 || e.trap
	e.rearm()
}

// flatElem reads element i of the run's inputs under a flat indexing of
// all arrays in order — the footprint a corrupted index or pointer
// roams over.
func (e *Env) flatElem(i uint64) fp.Bits {
	for _, arr := range e.mem {
		if i < uint64(len(arr)) {
			return arr[i]
		}
		i -= uint64(len(arr))
	}
	return 0
}

// applyControl emulates the consumption of the corrupted control word
// at the struck operation. It either panics with a dueSignal (the
// emulated crash/hang, recovered by the runner's exec.Guard) or leaves
// the environment in a silently-wrong state whose output is classified
// normally.
func (e *Env) applyControl() {
	e.applied++
	switch e.ctl.Class {
	case LoopControl:
		// The trip counter holds the remaining iterations; on this
		// abstract machine that is the remaining golden operations.
		var remaining uint32
		if e.goldenOps > e.ctl.Site {
			remaining = uint32(e.goldenOps - e.ctl.Site)
		}
		corrupted := remaining ^ 1<<(uint(e.ctl.Bit)%loopBits)
		if corrupted > remaining {
			// Upward jump: the loop re-executes that many extra
			// operations. Account for them immediately — if the budget
			// cannot absorb them the watchdog fires here; otherwise the
			// re-executed iterations are idempotent on this machine and
			// the run continues to a (possibly corrupted) output. The
			// jumped operations count toward the budget but were never
			// executed, so statJumped keeps them out of inject_ops.
			jump := uint64(corrupted - remaining)
			e.all += jump
			e.statJumped += jump
			if e.budget > 0 && e.all > e.budget {
				panic(dueSignal{outcome: HangDUE, cause: CauseWatchdog})
			}
		} else {
			// Downward jump: the loop exits early. Every remaining
			// operation is skipped — operands pass through untouched.
			e.skip = true
		}
	case IndexControl:
		if e.memTotal == 0 {
			// No mapped data: any corrupted access faults.
			panic(dueSignal{outcome: CrashDUE, cause: CauseSegfault})
		}
		idx := e.ctl.Site % e.memTotal
		corrupted := idx ^ 1<<(uint(e.ctl.Bit)%indexBits)
		if corrupted >= e.memTotal {
			panic(dueSignal{outcome: CrashDUE, cause: CauseSegfault})
		}
		e.ctlPending = true
		e.ctlVal = e.flatElem(corrupted)
	case PointerControl:
		if e.memTotal == 0 {
			panic(dueSignal{outcome: CrashDUE, cause: CauseSegfault})
		}
		word := uint64(e.inner.Format().Width() / 8)
		addr := (e.ctl.Site % e.memTotal) * word
		corrupted := addr ^ 1<<(uint(e.ctl.Bit)%pointerBits)
		elem, off := corrupted/word, corrupted%word
		if elem >= e.memTotal {
			panic(dueSignal{outcome: CrashDUE, cause: CauseSegfault})
		}
		v := uint64(e.flatElem(elem))
		if off != 0 {
			// Misaligned load: the word straddles two elements.
			if elem+1 >= e.memTotal {
				panic(dueSignal{outcome: CrashDUE, cause: CauseSegfault})
			}
			w := uint(e.inner.Format().Width())
			hi := uint64(e.flatElem(elem + 1))
			v = v>>(8*uint(off)) | hi<<(w-8*uint(off))
			if w < 64 {
				v &= 1<<w - 1
			}
		}
		e.ctlPending = true
		e.ctlVal = fp.Bits(v)
	}
}

// duePre applies pending control-state effects to an operation's first
// operand: an aliased/misaligned load replaces it, and skip mode
// reports that the operation body is bypassed entirely (the caller then
// passes the designated operand through as the result).
func (e *Env) duePre(a fp.Bits) (operand fp.Bits, skipped bool) {
	if e.ctlPending {
		e.ctlPending = false
		a = e.ctlVal
	}
	return a, e.skip
}

// trapLive reports whether the NaN/Inf trap is armed and live: after a
// corruption, or from the first operation when inputs were corrupted.
func (e *Env) trapLive() bool {
	return e.trap && (e.applied != 0 || e.trapAll)
}

// duePost applies the NaN/Inf trap to a computed result: the first
// non-finite value produced after a corruption (or from corrupted
// inputs) is delivered as an FP exception, i.e. a crash.
func (e *Env) duePost(res fp.Bits) fp.Bits {
	if e.trapLive() {
		e.trapNonFinite(res)
	}
	return res
}

// trapNonFinite raises the trap's crash when res is NaN or Inf. It is
// kept out of duePost so that the fast path inlines the liveness test.
func (e *Env) trapNonFinite(res fp.Bits) {
	if f := e.inner.Format(); f.IsNaN(res) || f.IsInf(res) {
		panic(dueSignal{outcome: CrashDUE, cause: CauseTrap})
	}
}

// IntDecision implements fp.IntDecider: when the fault targets integer
// state and this is the struck decision site, a low bit of the value is
// flipped; otherwise the value passes through (and is forwarded to any
// deeper IntDecider, so counters stay consistent across wrappers).
func (e *Env) IntDecision(k int) int {
	if d, ok := e.inner.(fp.IntDecider); ok {
		k = d.IntDecision(k)
	}
	for i := range e.faults {
		if f := &e.faults[i].fault; f.Target == TargetIntState && e.intCtr == f.Index {
			k ^= 1 << uint(f.Bit%5)
			e.applied++
		}
	}
	e.intCtr++
	return k
}

// Tile implements fp.Tiler: it skips output tile t, with live-ins in
// and named outputs out, when no fault or hook can reach it, adding the
// tile's golden operation counts to the counters in place of executing
// it, copying the golden values of its named outputs into out, and
// returning the golden result of its last operation. The skipped tile's
// outputs in the output buffer keep the golden values the runner filled
// it with. All three are exact when the tile reads only golden values
// and nothing acts inside it: it would recompute its golden operations
// and rewrite its golden outputs bit for bit.
//
// What the tile reads is golden while replay induction holds (pristine
// inputs, nothing corrupted yet), and otherwise when every live-in it
// names equals the golden run's bits (the tile table keeps them), even
// in a memory-fault run or after a strike.
//
// Nothing acts inside the tile when all of these hold:
//
//   - skip mode is off and no control-corrupted operand is pending;
//   - the fault's next strike, counted on its own counter (all, or its
//     kind's), lies past the tile's span from the current counter;
//   - an int-state fault's decision site lies past the tile's int sites;
//   - an armed control site lies past the tile's span;
//   - the trap is not live, or the tile has no non-finite golden result.
//
// A skip needs no re-arm of the quiet horizon: the gates are absolute
// counter values, and a skip moves the counters only up to the next
// strike and control site, which the rules above put past the tile. A
// tile that crosses the watchdog budget trips it, as executing it would
// at its first operation past the budget.
//
//mixedrelvet:hotpath per-tile skip decision, one call per output tile
func (e *Env) Tile(t int, in, out []fp.Bits) (fp.Bits, bool) {
	tt := e.tiles
	if tt == nil || t >= tt.Len() {
		return 0, false
	}
	if e.skip || e.ctlPending {
		return 0, false
	}
	sh := tt.Shape(t)
	for i := range e.faults {
		s := &e.faults[i]
		span := sh.Ops
		if !s.fault.AnyKind {
			span = sh.ByOp[s.fault.Kind]
		}
		if s.at < e.counter(s)+span {
			return 0, false
		}
		if f := &s.fault; f.Target == TargetIntState && f.Index >= e.intCtr && f.Index < e.intCtr+sh.IntSites {
			return 0, false
		}
	}
	if e.ctlArmed && e.ctl.Site >= e.all && e.ctl.Site < e.all+sh.Ops {
		return 0, false
	}
	if induction := e.applied == 0 && e.replay != nil; !induction && !slices.Equal(in, tt.LiveIns(t)) {
		return 0, false
	}
	if e.trapLive() && tt.NonFinite(t) {
		return 0, false
	}
	copy(out, tt.Outputs(t))
	for k, n := range &sh.ByOp {
		e.byKind[k] += n
	}
	e.all += sh.Ops
	e.intCtr += sh.IntSites
	e.statJumped += sh.Ops
	e.statTiles++
	if e.budget > 0 && e.all > e.budget {
		panic(dueSignal{outcome: HangDUE, cause: CauseWatchdog})
	}
	return tt.Last(t), true
}

// Format implements fp.Env.
func (e *Env) Format() fp.Format { return e.inner.Format() }

// The arithmetic methods below are the per-operation fast path: tick
// counts the operation and checks the quiet horizon; a quiet operation
// is served from the replay trace or computed (the trap still applies),
// and anything else goes to the outlined slow path.

// Add implements fp.Env.
//
//mixedrelvet:hotpath per-operation injection fast path, millions of calls per campaign
func (e *Env) Add(a, b fp.Bits) fp.Bits {
	if !e.tick(fp.OpAdd) {
		return e.slow(fp.OpAdd, a, b, 0)
	}
	if res, ok := e.replayed(); ok {
		return res
	}
	return e.duePost(e.inner.Add(a, b))
}

// Sub implements fp.Env.
//
//mixedrelvet:hotpath per-operation injection fast path, millions of calls per campaign
func (e *Env) Sub(a, b fp.Bits) fp.Bits {
	if !e.tick(fp.OpSub) {
		return e.slow(fp.OpSub, a, b, 0)
	}
	if res, ok := e.replayed(); ok {
		return res
	}
	return e.duePost(e.inner.Sub(a, b))
}

// Mul implements fp.Env.
//
//mixedrelvet:hotpath per-operation injection fast path, millions of calls per campaign
func (e *Env) Mul(a, b fp.Bits) fp.Bits {
	if !e.tick(fp.OpMul) {
		return e.slow(fp.OpMul, a, b, 0)
	}
	if res, ok := e.replayed(); ok {
		return res
	}
	return e.duePost(e.inner.Mul(a, b))
}

// Div implements fp.Env.
//
//mixedrelvet:hotpath per-operation injection fast path, millions of calls per campaign
func (e *Env) Div(a, b fp.Bits) fp.Bits {
	if !e.tick(fp.OpDiv) {
		return e.slow(fp.OpDiv, a, b, 0)
	}
	if res, ok := e.served(fp.OpDiv, a, b, 0); ok {
		return res
	}
	return e.duePost(e.inner.Div(a, b))
}

// FMA implements fp.Env.
//
//mixedrelvet:hotpath per-operation injection fast path, millions of calls per campaign
func (e *Env) FMA(a, b, c fp.Bits) fp.Bits {
	if !e.tick(fp.OpFMA) {
		return e.slow(fp.OpFMA, a, b, c)
	}
	if res, ok := e.replayed(); ok {
		return res
	}
	return e.duePost(e.inner.FMA(a, b, c))
}

// Sqrt implements fp.Env.
//
//mixedrelvet:hotpath per-operation injection fast path, millions of calls per campaign
func (e *Env) Sqrt(a fp.Bits) fp.Bits {
	if !e.tick(fp.OpSqrt) {
		return e.slow(fp.OpSqrt, a, 0, 0)
	}
	if res, ok := e.served(fp.OpSqrt, a, 0, 0); ok {
		return res
	}
	return e.duePost(e.inner.Sqrt(a))
}

// Exp implements fp.Env.
//
//mixedrelvet:hotpath per-operation injection fast path, millions of calls per campaign
func (e *Env) Exp(a fp.Bits) fp.Bits {
	if !e.tick(fp.OpExp) {
		return e.slow(fp.OpExp, a, 0, 0)
	}
	if res, ok := e.served(fp.OpExp, a, 0, 0); ok {
		return res
	}
	return e.duePost(e.inner.Exp(a))
}

// FromFloat64 implements fp.Env.
func (e *Env) FromFloat64(v float64) fp.Bits { return e.inner.FromFloat64(v) }

// ToFloat64 implements fp.Env.
func (e *Env) ToFloat64(b fp.Bits) float64 { return e.inner.ToFloat64(b) }

// Outcome classifies one faulty execution.
type Outcome int

const (
	// Masked: the output is bit-identical to the golden output.
	Masked Outcome = iota
	// SDC: silent data corruption — at least one output bit differs.
	SDC
	// CrashDUE: the execution died before producing output — an
	// emulated segfault from corrupted control state, or an FP trap on
	// a non-finite result. Detected and unrecoverable, but not silent.
	CrashDUE
	// HangDUE: the op-budget watchdog killed a runaway execution
	// (kernel exceeded k x its golden operation profile).
	HangDUE
)

func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case SDC:
		return "SDC"
	case CrashDUE:
		return "crash-DUE"
	case HangDUE:
		return "hang-DUE"
	}
	return "outcome?"
}

// IsDUE reports whether o is a detected-unrecoverable outcome.
func (o Outcome) IsDUE() bool { return o == CrashDUE || o == HangDUE }

// RunResult is the outcome of one faulty execution.
type RunResult struct {
	Outcome Outcome
	// Cause identifies the detector behind a DUE outcome (CauseNone
	// for masked/SDC runs).
	Cause DUECause
	// MaxRelErr is the worst element-wise relative error vs golden
	// (0 when masked; +Inf for NaN/Inf corruption).
	MaxRelErr float64
	// Output is the decoded faulty output (nil unless requested).
	Output []float64
	// FaultApplied reports whether the op fault actually fired (an
	// index past the dynamic op count never fires).
	FaultApplied bool
}
