package inject

import "mixedrel/internal/fp"

// The injecting environment implements fp.BatchEnv (DotFMA, AXPY and
// GemmFMA, the three batch shapes the kernels issue) so that the bulk
// of a faulty run — everything outside the operations a fault or DUE
// hook can touch — moves at the inner machine's batch speed while
// remaining observationally identical to the scalar path. Each batch
// method is one gate-driven loop over its window:
//
//   - the quiet stretch up to the next gate of the quiet horizon
//     (quietLen: the nearer of quiet and kindAt[kind]) runs in bulk:
//     the counters advance in one step, and the results are served from
//     the fault-free replay trace (before any corruption every operand is
//     still bit-identical to the recorded run, so a DotFMA chain
//     collapses into ONE trace lookup), compare-served from the compiled
//     program (ChainPrefix, ServeAxpy, ServeGemm), or computed through
//     the inner environment's own batch fast path;
//   - the gated operation runs through its scalar method, whose slow path
//     performs the exact matching, corruption, DUE hooks and counter
//     bookkeeping and re-arms the gates; the loop then repeats on the
//     rest of the window.
//
// A batch no fault reaches is therefore one bulk stretch, and a single
// strike splits its batch in two around one scalar operation. A
// persistent (Modulo) fault costs one scalar operation per struck
// instance rather than a per-operation decomposition of every window it
// touches; with no DUE hook armed (a scheduled fault, see Env.scheduled)
// that operation takes the slow path's struck-result exit, its inner
// compute plus one XOR with the fault's mask. GemmFMA goes further for a
// scheduled fault: once its next gate is a strike, the rest of the grid
// is one struck machine grid (strikeGrid), at interleaved speed however
// many strikes it holds. A live trap has no quiet stretch (every result
// must be checked at its exact operation), so the window decomposes
// fully.
//
// TargetIntState faults never strike arithmetic (they fire inside
// IntDecision), so for them every batch takes the bulk path.

// quietLen returns how many of the next n operations of the given kind
// lie inside the quiet horizon, the same gates the scalar fast path
// checks: the stretch ends before the first operation at which a
// strike, watchdog trip, control strike, skip mode or pending operand
// can act. A live trap returns 0. The returned stretch is guaranteed to
// behave exactly like plain compute; only the operation after it needs
// the exact scalar semantics.
func (e *Env) quietLen(kind fp.Op, n int) int {
	if e.trapLive() {
		return 0
	}
	q := uint64(n)
	if e.all+q > e.quiet {
		q = 0
		if e.quiet > e.all {
			q = e.quiet - e.all
		}
	}
	if c := e.byKind[kind]; c+q > e.kindAt[kind] {
		q = 0
		if e.kindAt[kind] > c {
			q = e.kindAt[kind] - c
		}
	}
	return int(q)
}

// advance moves the operation counters past n operations of one kind.
func (e *Env) advance(kind fp.Op, n uint64) {
	e.all += n
	e.byKind[kind] += n
}

// replayable reports whether a just-advanced quiet stretch can be
// served from the fault-free result trace — same condition as the
// scalar replayed(): trace long enough, nothing corrupted yet.
func (e *Env) replayable() bool {
	return e.applied == 0 && uint64(len(e.replay)) >= e.all
}

// compiled reports whether a just-advanced quiet stretch — missed by
// replayable — may try the compiled trace program's compare-serving. No
// operation in the stretch is struck and no behavioral-DUE hook can fire
// inside it; compare-serving then answers each operation from the trace
// exactly when its recorded operands match the live ones, which is the
// post-fault cone partition: compares miss precisely on the
// fault-dependent operations, and only those recompute through the
// inner machine.
func (e *Env) compiled() bool {
	return e.prog != nil
}

// DotFMA implements fp.BatchEnv.
//
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) DotFMA(acc fp.Bits, a, b []fp.Bits) fp.Bits {
	for {
		q := e.quietLen(fp.OpFMA, len(a))
		acc = e.dot(acc, a[:q], b[:q])
		if q == len(a) {
			return acc
		}
		acc = e.FMA(a[q], b[q], acc)
		a, b = a[q+1:], b[q+1:]
	}
}

// dot runs a quiet stretch of an FMA chain in bulk.
//
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) dot(acc fp.Bits, a, b []fp.Bits) fp.Bits {
	n := uint64(len(a))
	if n == 0 {
		return acc
	}
	e.advance(fp.OpFMA, n)
	if e.replayable() {
		// Only the final accumulator leaves the chain, so the whole
		// stretch is one lookup of the last recorded result.
		e.statReplayed += n
		return e.replay[e.all-1]
	}
	if e.compiled() {
		// Serve the longest operand-matching prefix of the chain and
		// recompute only the suffix the fault's cone reaches (a miss
		// serves nothing and passes acc through).
		res, served := e.prog.ChainPrefix(&e.cur, e.all-n, acc, a, b)
		e.statServed += uint64(served)
		acc, a, b = res, a[served:], b[served:]
	}
	if len(a) == 0 {
		return acc
	}
	return fp.DotFMA(e.inner, acc, a, b)
}

// GemmFMA implements fp.BatchEnv with DotFMA's gate-driven loop at chain
// granularity: the chains wholly inside the quiet stretch run in bulk
// through gemmChains, and the chain holding the next gate runs through
// DotFMA, which splits it at that gate (and at any further gate inside
// it). A fault that strikes once costs k operations of DotFMA plus two
// bulk ranges. When the gate is the strike of a scheduled fault (a
// persistent result fault with no DUE hook armed) and the inner
// environment is the plain machine, the rest of the grid is instead one
// struck machine grid (strikeGrid), whatever the number of strikes in
// it.
//
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) GemmFMA(out, accs, a, bt []fp.Bits, rows, cols, k int) {
	chains := rows * cols
	if chains == 0 || k == 0 {
		return
	}
	m, machine := e.inner.(*fp.Machine)
	for t := 0; t < chains; t++ {
		next := t + e.quietLen(fp.OpFMA, (chains-t)*k)/k
		e.gemmChains(out, accs, a, bt, rows, cols, k, t, next)
		if next == chains {
			return
		}
		t = next
		if machine && e.scheduled(fp.OpFMA) {
			e.strikeGrid(m, out, accs, a, bt, rows, cols, k, t)
			return
		}
		i, j := t/cols, t%cols
		acc := e.FromFloat64(0)
		if accs != nil {
			acc = accs[i]
		}
		out[t] = e.DotFMA(acc, a[i*k:(i+1)*k], bt[j*k:j*k+k])
	}
}

// strikeGrid runs the grid's chains [first, rows*cols) under a scheduled
// fault whose next strike lies among their FMAs, as one call of the
// machine's struck grid: the counters advance past the window, and the
// strikes it crossed are recorded in one step. Nothing but the strikes
// can act on the window's operations, so they need no per-operation
// gating, and the operations between strikes are plain compute.
//
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) strikeGrid(m *fp.Machine, out, accs, a, bt []fp.Bits, rows, cols, k, first int) {
	n := uint64(rows*cols-first) * uint64(k)
	ctr := e.all
	if !e.fault.AnyKind {
		ctr = e.byKind[fp.OpFMA]
	}
	off, mod := e.strikeAt-ctr, e.fault.Modulo
	// A period past the window strikes it once, so it is clamped to the
	// window to fit an int.
	s := fp.Strike{First: int(off), Period: int(min(mod, n)), Mask: e.mask}
	m.GemmStrike(out, accs, a, bt, rows, cols, k, first, s)
	e.advance(fp.OpFMA, n)
	e.strikeOn((n-off-1)/mod + 1)
}

// gemmChains runs the grid's chains [first, limit), all inside the quiet
// stretch, in bulk: the counters advance in one step, and the chains are
// served from the replay trace (one copy from the compiled program's
// chain tails, or one lookup per chain without a program), from the
// compiled program (one slab compare resolves the fault's dirty
// rows/columns; the range copies from the tails and only dirty chains
// recompute), or recomputed through the inner environment.
//
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) gemmChains(out, accs, a, bt []fp.Bits, rows, cols, k, first, limit int) {
	if first >= limit {
		return
	}
	n := uint64(limit-first) * uint64(k)
	e.advance(fp.OpFMA, n)
	pos := e.all - n
	if e.replayable() {
		e.statReplayed += n
		if e.compiled() {
			if tails, ok := e.prog.GemmTails(&e.cur, pos, rows, cols, k, first, limit); ok {
				copy(out[first:limit], tails)
				return
			}
		}
		// Absolute chain t ends at stream position pos + (t-first+1)*k - 1.
		for t := first; t < limit; t++ {
			out[t] = e.replay[pos+uint64((t-first+1)*k)-1]
		}
		return
	}
	if e.compiled() {
		if recomputed, ok := e.prog.ServeGemm(&e.cur, pos, out, accs, a, bt, rows, cols, k, first, limit, e.inner); ok {
			e.statServed += n - recomputed
			return
		}
	}
	if first == 0 && limit == rows*cols {
		// Whole grid: keep the inner machine's decode-once fast path.
		fp.GemmFMA(e.inner, out, accs, a, bt, rows, cols, k)
		return
	}
	zero := e.FromFloat64(0)
	for t := first; t < limit; t++ {
		i, j := t/cols, t%cols
		acc := zero
		if accs != nil {
			acc = accs[i]
		}
		out[t] = fp.DotFMA(e.inner, acc, a[i*k:(i+1)*k], bt[j*k:j*k+k])
	}
}

// AXPY implements fp.BatchEnv.
//
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) AXPY(dst []fp.Bits, s fp.Bits, x []fp.Bits) {
	for {
		q := e.quietLen(fp.OpFMA, len(x))
		e.axpy(dst[:q], s, x[:q])
		if q == len(x) {
			return
		}
		dst[q] = e.FMA(s, x[q], dst[q])
		dst, x = dst[q+1:], x[q+1:]
	}
}

// axpy runs a quiet stretch of an AXPY update in bulk.
//
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) axpy(dst []fp.Bits, s fp.Bits, x []fp.Bits) {
	n := uint64(len(x))
	if n == 0 {
		return
	}
	e.advance(fp.OpFMA, n)
	if e.replayable() {
		copy(dst, e.replay[e.all-n:e.all])
		e.statReplayed += n
		return
	}
	if e.compiled() {
		// The dirty interval keeps its pristine accumulator inputs in
		// dst; only those elements recompute.
		if lo, hi, ok := e.prog.ServeAxpy(&e.cur, e.all-n, s, x, dst); ok {
			e.statServed += n - uint64(hi-lo)
			if lo < hi {
				fp.AXPY(e.inner, dst[lo:hi], s, x[lo:hi])
			}
			return
		}
	}
	fp.AXPY(e.inner, dst, s, x)
}
