package inject

import (
	"fmt"

	"mixedrel/internal/fp"
	"mixedrel/internal/rng"
)

// This file is the behavioral DUE model: detected-unrecoverable events
// (crashes, hangs) emerge from emulated control-state corruption and
// runtime detectors instead of being sampled from a constant rate.
//
// Three control-state fault classes are modeled, mirroring what a
// strike on sequencing logic does to a real kernel:
//
//   - LoopControl: a loop trip counter is corrupted at a random point
//     of the operation stream. An upward jump re-executes iterations —
//     caught by the op-budget watchdog as a hang when it runs away; a
//     downward jump exits early, silently truncating the computation.
//   - IndexControl: an array index is corrupted; out-of-range values
//     fault (emulated segfault), in-range values silently alias another
//     element into the datapath.
//   - PointerControl: a data pointer is corrupted; bits beyond the
//     mapped footprint fault, low bits misalign the access so the
//     loaded word straddles two elements.
//
// Two runtime detectors complete the model: the op-budget watchdog
// (kernel exceeds k x its golden operation profile -> HangDUE) and an
// optional NaN/Inf trap (first non-finite result after a corruption
// -> CrashDUE), matching hardware FP exception delivery.

// ControlClass selects which control-state word a fault corrupts.
type ControlClass int

const (
	// LoopControl corrupts a loop trip counter at the struck operation.
	LoopControl ControlClass = iota
	// IndexControl corrupts an array index feeding an operand load.
	IndexControl
	// PointerControl corrupts a data pointer feeding an operand load.
	PointerControl

	numControlClasses
)

// NumControlClasses is the number of modeled control-state classes.
const NumControlClasses = int(numControlClasses)

func (c ControlClass) String() string {
	switch c {
	case LoopControl:
		return "loop"
	case IndexControl:
		return "index"
	case PointerControl:
		return "pointer"
	}
	return "control?"
}

// Control-word widths: trip counters and indices are 32-bit integers;
// pointers carry 48 implemented virtual-address bits (upper bits are
// sign-extended on real hardware, so a flip there always faults).
const (
	loopBits    = 32
	indexBits   = 32
	pointerBits = 48
)

// ControlFault describes a single-bit corruption of control state
// consumed at one dynamic operation.
type ControlFault struct {
	Class ControlClass
	// Site is the dynamic operation index (counted over all arithmetic
	// operations, like OpFault with AnyKind) at which the corrupted
	// control word is consumed.
	Site uint64
	// Bit is the flipped bit within the control word; it is taken
	// modulo the class's width (32 for loop/index, 48 for pointer).
	Bit int
}

func (c ControlFault) String() string {
	return fmt.Sprintf("control[%v site=%d bit=%d]", c.Class, c.Site, c.Bit)
}

// SampleControlFault draws a uniformly random control-state fault over
// the dynamic operations recorded in counts.
func SampleControlFault(r *rng.Rand, counts fp.OpCounts) ControlFault {
	class := ControlClass(r.Intn(NumControlClasses))
	bits := indexBits
	switch class {
	case LoopControl:
		bits = loopBits
	case PointerControl:
		bits = pointerBits
	}
	n := counts.Total()
	if n == 0 {
		panic("inject: no dynamic operations for a control fault")
	}
	return ControlFault{Class: class, Site: r.Uint64n(n), Bit: r.Intn(bits)}
}

// DUECause records which mechanism detected the unrecoverable event.
type DUECause int

const (
	// CauseNone: the run was not a behavioral DUE.
	CauseNone DUECause = iota
	// CauseSegfault: a corrupted index or pointer left the mapped
	// footprint and the access faulted.
	CauseSegfault
	// CauseTrap: the FP trap fired on a non-finite result after a
	// corruption.
	CauseTrap
	// CauseWatchdog: the op-budget watchdog killed a runaway execution.
	CauseWatchdog
)

func (c DUECause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseSegfault:
		return "segfault"
	case CauseTrap:
		return "fp-trap"
	case CauseWatchdog:
		return "watchdog"
	}
	return "cause?"
}

// DefaultWatchdogFactor is the default op-budget multiple k: a faulty
// run executing more than k x its golden operation count is classified
// as a hang. Generous enough that legitimate control corruption which
// merely re-runs a few iterations still completes and is classified by
// its output.
const DefaultWatchdogFactor = 4

// dueSignal aborts a faulty execution mid-kernel via panic; the
// runner's exec.Guard recovers it and translates it into a classified
// RunResult. Kernels never see or handle it (they must not recover —
// see the confine analyzer).
type dueSignal struct {
	outcome Outcome
	cause   DUECause
}

// ClassifiedOutcome implements exec.Classified: Guard recovers a
// dueSignal without capturing a stack.
func (dueSignal) ClassifiedOutcome() {}

// FaultSpec is the full fault specification of one sample: at most one
// of Op/Control, any number of memory faults, plus the runtime
// detectors armed for the run.
type FaultSpec struct {
	Op      *OpFault
	Mem     []MemFault
	Control *ControlFault
	// Watchdog is the op-budget factor k (0 disables the watchdog).
	Watchdog float64
	// TrapNonFinite arms the FP trap: the first non-finite result
	// produced after a corruption raises CrashDUE.
	TrapNonFinite bool
}

// Fault is one fault held by value: what a campaign draws for a
// sample before it runs it. Site selects the field that holds it
// (SiteOperation and SiteOperand both use Op, whose Target tells them
// apart). Drawing, storing and passing a Fault allocates nothing; Spec
// turns it into the FaultSpec a Runner executes.
type Fault struct {
	Site    Site
	Op      OpFault
	Mem     MemFault
	Control ControlFault
}

// Spec returns the FaultSpec that injects f, with no detector armed.
// It points into f, so f must stay live and unchanged while the spec
// runs. Spec inlines, so a spec built where it runs stays on the
// stack.
func (f *Fault) Spec() FaultSpec {
	switch f.Site {
	case SiteMemory:
		return FaultSpec{Mem: []MemFault{f.Mem}}
	case SiteControl:
		return FaultSpec{Control: &f.Control}
	}
	return FaultSpec{Op: &f.Op}
}

// Desc renders the spec compactly for aborted-sample replay
// diagnostics.
func (s FaultSpec) Desc() string {
	out := ""
	if s.Op != nil {
		out += fmt.Sprintf("op[kind=%v any=%v idx=%d mod=%d bit=%d w=%d tgt=%v] ",
			s.Op.Kind, s.Op.AnyKind, s.Op.Index, s.Op.Modulo, s.Op.Bit, s.Op.Width, s.Op.Target)
	}
	for _, mf := range s.Mem {
		out += fmt.Sprintf("mem[arr=%d elem=%d bit=%d w=%d] ", mf.Array, mf.Elem, mf.Bit, mf.Width)
	}
	if s.Control != nil {
		out += s.Control.String() + " "
	}
	if s.Watchdog > 0 {
		out += fmt.Sprintf("watchdog=%g ", s.Watchdog)
	}
	if s.TrapNonFinite {
		out += "trap "
	}
	if out == "" {
		return "fault-free"
	}
	return out[:len(out)-1]
}
