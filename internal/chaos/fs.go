// Package chaos is the fault-injection layer for the campaign engine's
// OWN infrastructure: where internal/inject corrupts the simulated
// workload, this package corrupts the simulator's checkpoint I/O and
// scheduling environment, so the crash-tolerance machinery (journal
// retries, degraded mode, torn-tail recovery, cancellation drains) is
// exercised by tests and the soak harness instead of trusted on faith.
//
// The package plugs into the exec.FS seam (exec.Checkpoint.FS) and is
// deliberately unreachable from production binaries: the chaos
// mixedrelvet analyzer proves that only this package, cmd/mixedrelstress
// and test files import it. Everything here is deterministic in a seed —
// the n-th filesystem operation trips a fault iff a pure function of
// (seed, op kind, n) says so — because a soak failure is only useful if
// the exact round that produced it can be replayed.
package chaos

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"mixedrel/internal/exec"
	"mixedrel/internal/rng"
)

// ErrInjected is the base cause of every fault this package raises
// (errors.Is-matchable), other than ErrNoSpace.
var ErrInjected = errors.New("chaos: injected I/O error")

// ErrNoSpace is the injected out-of-space condition — the portable
// stand-in for ENOSPC, raised when a write runs past FS.SpaceBudget.
var ErrNoSpace = errors.New("chaos: injected no-space condition")

// Op identifies the kind of filesystem operation a fault landed on.
type Op int

const (
	OpWrite Op = iota
	OpShortWrite
	OpSync
	OpOpen
	OpCreate
	OpRename
	opCount
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpShortWrite:
		return "short-write"
	case OpSync:
		return "sync"
	case OpOpen:
		return "open"
	case OpCreate:
		return "create"
	case OpRename:
		return "rename"
	}
	return "op?"
}

// Stats counts the faults an FS injected, by kind.
type Stats struct {
	Ops     int64 // total operations observed (faulted or not)
	Writes  int64 // full write failures
	Shorts  int64 // short writes (partial payload + error)
	Syncs   int64 // sync failures
	Opens   int64 // open/create failures
	Renames int64 // rename failures
	Space   int64 // writes rejected by the space budget
}

// Total returns the number of injected faults.
func (s Stats) Total() int64 {
	return s.Writes + s.Shorts + s.Syncs + s.Opens + s.Renames + s.Space
}

// FS is a fault-injecting exec.FS: it forwards every operation to Inner
// and, with the configured per-operation probabilities, fails it
// instead. Decisions are seed-addressed — operation number n of kind op
// faults iff rng.New(Seed ^ mix(op, n)) draws below the probability —
// so a given (Seed, probabilities, operation sequence) always injects
// the same faults. The journal serializes its I/O under a mutex, which
// makes the operation sequence itself deterministic for a fixed
// campaign.
//
// The zero probabilities (or Disarmed) make FS a pure pass-through;
// the bench-chaos gate uses exactly that to price the seam's
// indirection with the faults turned off.
type FS struct {
	// Inner is the real filesystem underneath (required). Soak rounds
	// back it with a *NullFS so injected damage never touches disk.
	Inner exec.FS
	// Seed addresses the fault decisions.
	Seed uint64
	// Fault probabilities in [0, 1], evaluated independently per
	// operation: full write failures (nothing written), short writes
	// (half the payload lands, then an error — a torn tail), sync
	// failures (data written but durability denied), open/create
	// failures, and rename failures (compaction commit denied).
	PWrite, PShortWrite, PSync, POpen, PRename float64
	// SpaceBudget, when positive, bounds the total bytes Inner accepts
	// through this FS: a write that would exceed it lands only the
	// remaining budget and fails with ErrNoSpace — persistently, like a
	// full disk, until a fresh FS (a "cleanup") replaces this one.
	SpaceBudget int64
	// Disarmed turns every fault off while keeping the wrapper in the
	// call path (overhead measurement).
	Disarmed bool
	// OnOp, when non-nil, observes every operation before it executes
	// (n is the 1-based global operation number). Soak rounds use it to
	// fire cancellations at a chosen depth into the I/O stream. It runs
	// under the journal's lock — keep it trivial.
	OnOp func(n int64, op Op)

	n     atomic.Int64
	used  atomic.Int64
	stats [opCount]atomic.Int64
	space atomic.Int64
}

// Stats snapshots the faults injected so far.
func (c *FS) Stats() Stats {
	return Stats{
		Ops:     c.n.Load(),
		Writes:  c.stats[OpWrite].Load(),
		Shorts:  c.stats[OpShortWrite].Load(),
		Syncs:   c.stats[OpSync].Load(),
		Opens:   c.stats[OpOpen].Load() + c.stats[OpCreate].Load(),
		Renames: c.stats[OpRename].Load(),
		Space:   c.space.Load(),
	}
}

// trip advances the operation counter and decides whether operation op
// faults. The decision depends only on (Seed, op, n).
func (c *FS) trip(op Op, p float64) bool {
	n := c.n.Add(1)
	if c.OnOp != nil {
		c.OnOp(n, op)
	}
	if c.Disarmed || p <= 0 {
		return false
	}
	// splitmix-style address: fold the op kind into the high bits so
	// the same operation number draws independently per kind.
	r := rng.New(c.Seed ^ uint64(op)<<56 ^ uint64(n)*0x9e3779b97f4a7c15)
	if r.Float64() >= p {
		return false
	}
	c.stats[op].Add(1)
	return true
}

func (c *FS) injected(op Op) error {
	return fmt.Errorf("chaos: %s fault (op %d): %w", op, c.n.Load(), ErrInjected)
}

// ReadFile passes through: journal loads are not a fault site (a
// campaign that cannot read its journal simply restarts, which the
// torn-tail tests cover directly).
func (c *FS) ReadFile(path string) ([]byte, error) { return c.Inner.ReadFile(path) }

// MkdirAll passes through.
func (c *FS) MkdirAll(path string, perm os.FileMode) error { return c.Inner.MkdirAll(path, perm) }

// OpenAppend opens the underlying file, or fails by injection.
func (c *FS) OpenAppend(path string) (exec.File, error) {
	if c.trip(OpOpen, c.POpen) {
		return nil, c.injected(OpOpen)
	}
	f, err := c.Inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &chaosFile{fs: c, f: f}, nil
}

// Create opens the compaction scratch file, or fails by injection.
func (c *FS) Create(path string) (exec.File, error) {
	if c.trip(OpCreate, c.POpen) {
		return nil, c.injected(OpCreate)
	}
	f, err := c.Inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &chaosFile{fs: c, f: f}, nil
}

// Rename commits the compaction, or fails by injection (leaving the
// scratch file for Remove, exactly like a crash between write and
// rename).
func (c *FS) Rename(oldpath, newpath string) error {
	if c.trip(OpRename, c.PRename) {
		return c.injected(OpRename)
	}
	return c.Inner.Rename(oldpath, newpath)
}

// Remove passes through (cleanup is best-effort everywhere already).
func (c *FS) Remove(path string) error { return c.Inner.Remove(path) }

// chaosFile wraps one open handle of the inner FS.
type chaosFile struct {
	fs *FS
	f  exec.File
}

// Write lands p on the inner file, subject to the space budget and the
// write/short-write faults. A short write forwards the first half of
// the payload — a torn line the journal must recover from — and a
// budget overrun lands only the remaining budget before failing with
// ErrNoSpace, persistently.
func (w *chaosFile) Write(p []byte) (int, error) {
	c := w.fs
	if !c.Disarmed && c.SpaceBudget > 0 {
		rest := c.SpaceBudget - c.used.Load()
		if int64(len(p)) > rest {
			c.n.Add(1)
			c.space.Add(1)
			if rest < 0 {
				rest = 0
			}
			n, _ := w.f.Write(p[:rest])
			c.used.Add(int64(n))
			return n, fmt.Errorf("chaos: write of %d bytes exceeds space budget: %w", len(p), ErrNoSpace)
		}
	}
	if c.trip(OpShortWrite, c.PShortWrite) && len(p) > 1 {
		n, err := w.f.Write(p[: len(p)/2 : len(p)/2])
		c.used.Add(int64(n))
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("chaos: short write %d/%d: %w", n, len(p), ErrInjected)
	}
	if c.trip(OpWrite, c.PWrite) {
		return 0, c.injected(OpWrite)
	}
	n, err := w.f.Write(p)
	c.used.Add(int64(n))
	return n, err
}

// Sync denies durability by injection, else forwards.
func (w *chaosFile) Sync() error {
	c := w.fs
	if c.trip(OpSync, c.PSync) {
		return c.injected(OpSync)
	}
	return w.f.Sync()
}

// Close always forwards: close failures add nothing the sync and write
// faults do not already cover, and a journal that cannot even close
// would mask which fault actually degraded it.
func (w *chaosFile) Close() error { return w.f.Close() }
