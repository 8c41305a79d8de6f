package inject

import "mixedrel/internal/fp"

// The injecting environment implements fp.BatchEnv so that the bulk of a
// faulty run — everything outside the struck operation's batch — moves
// at the inner machine's batch speed while remaining observationally
// identical to the scalar path:
//
//   - if the configured fault could strike any of the batch's n dynamic
//     operations, or a DUE hook fire within them (canStrike, a test
//     against the quiet horizon), the batch is decomposed into the
//     scalar methods, which perform the exact per-operation matching,
//     corruption, and counter bookkeeping;
//   - otherwise the counters advance by n in one step, and the results
//     are either served from the fault-free replay trace (before any
//     corruption: every operand is still bit-identical to the recorded
//     run, so a DotFMA chain collapses into ONE trace lookup) or
//     computed through the inner environment's own batch fast path.
//
// TargetIntState faults never strike arithmetic (they fire inside
// IntDecision), so for them every batch takes the bulk path.

// canStrike reports whether the configured fault could corrupt any of
// the next n dynamic operations of the given kind — or whether an armed
// behavioral-DUE hook could fire within them. It answers from the quiet
// horizon, the same gates the scalar fast path checks, applied to the
// window's last counter values: a strike, watchdog trip, control strike,
// skip mode or pending operand inside the window crosses a gate. A live
// trap forces decomposition too, since a non-finite result anywhere in
// the batch must fault at its exact operation. A true return only costs
// speed (the batch decomposes into the exact scalar methods); a false
// one guarantees that nothing in the window differs from plain compute.
func (e *Env) canStrike(kind fp.Op, n uint64) bool {
	return e.all+n > e.quiet || e.byKind[kind]+n > e.kindAt[kind] || e.trapLive()
}

// advance moves the operation counters past n operations of one kind.
func (e *Env) advance(kind fp.Op, n uint64) {
	e.all += n
	e.byKind[kind] += n
}

// replayable reports whether a just-advanced batch of n operations can
// be served from the fault-free result trace — same condition as the
// scalar replayed(): trace long enough, nothing corrupted yet. The
// caller guarantees (via canStrike) that none of the n operations is
// struck.
func (e *Env) replayable() bool {
	return e.applied == 0 && uint64(len(e.replay)) >= e.all
}

// compiled reports whether a just-advanced batch — missed by
// replayable — may try the compiled trace program's compare-serving.
// Every batch that reaches its bulk path already cleared canStrike, so
// no operation in it is struck and no behavioral-DUE hook can fire
// inside it; compare-serving then answers each
// operation from the trace exactly when its recorded operands match
// the live ones, which is the post-fault cone partition: compares miss
// precisely on the fault-dependent operations, and only those
// recompute through the inner machine.
func (e *Env) compiled() bool {
	return e.prog != nil
}

// DotFMA implements fp.BatchEnv.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) DotFMA(acc fp.Bits, a, b []fp.Bits) fp.Bits {
	n := uint64(len(a))
	if n == 0 {
		return acc
	}
	if e.canStrike(fp.OpFMA, n) {
		for i, ai := range a {
			acc = e.FMA(ai, b[i], acc)
		}
		return acc
	}
	e.advance(fp.OpFMA, n)
	if e.replayable() {
		// Only the final accumulator leaves the chain, so the whole
		// batch is one lookup of the last recorded result.
		e.statReplayed += n
		return e.replay[e.all-1]
	}
	if e.compiled() {
		// Serve the longest operand-matching prefix of the chain and
		// recompute only the suffix the fault's cone reaches.
		res, served := e.prog.ChainPrefix(&e.cur, e.all-n, acc, a, b)
		e.statServed += uint64(served)
		if served == int(n) {
			return res
		}
		if served > 0 {
			return fp.DotFMA(e.inner, res, a[served:], b[served:])
		}
	}
	return fp.DotFMA(e.inner, acc, a, b)
}

// AddN implements fp.BatchEnv.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) AddN(dst, a, b []fp.Bits) {
	n := uint64(len(a))
	if n == 0 {
		return
	}
	if e.canStrike(fp.OpAdd, n) {
		for i, ai := range a {
			dst[i] = e.Add(ai, b[i])
		}
		return
	}
	e.advance(fp.OpAdd, n)
	if e.replayable() {
		copy(dst, e.replay[e.all-n:e.all])
		e.statReplayed += n
		return
	}
	if e.compiled() {
		if lo, hi, ok := e.prog.ServeMap(&e.cur, e.all-n, fp.OpAdd, dst, a, b, nil); ok {
			e.statServed += n - uint64(hi-lo)
			if lo < hi {
				fp.AddN(e.inner, dst[lo:hi], a[lo:hi], b[lo:hi])
			}
			return
		}
	}
	fp.AddN(e.inner, dst, a, b)
}

// MulN implements fp.BatchEnv.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) MulN(dst, a, b []fp.Bits) {
	n := uint64(len(a))
	if n == 0 {
		return
	}
	if e.canStrike(fp.OpMul, n) {
		for i, ai := range a {
			dst[i] = e.Mul(ai, b[i])
		}
		return
	}
	e.advance(fp.OpMul, n)
	if e.replayable() {
		copy(dst, e.replay[e.all-n:e.all])
		e.statReplayed += n
		return
	}
	if e.compiled() {
		if lo, hi, ok := e.prog.ServeMap(&e.cur, e.all-n, fp.OpMul, dst, a, b, nil); ok {
			e.statServed += n - uint64(hi-lo)
			if lo < hi {
				fp.MulN(e.inner, dst[lo:hi], a[lo:hi], b[lo:hi])
			}
			return
		}
	}
	fp.MulN(e.inner, dst, a, b)
}

// FMAN implements fp.BatchEnv.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) FMAN(dst, a, b, c []fp.Bits) {
	n := uint64(len(a))
	if n == 0 {
		return
	}
	if e.canStrike(fp.OpFMA, n) {
		for i, ai := range a {
			dst[i] = e.FMA(ai, b[i], c[i])
		}
		return
	}
	e.advance(fp.OpFMA, n)
	if e.replayable() {
		copy(dst, e.replay[e.all-n:e.all])
		e.statReplayed += n
		return
	}
	if e.compiled() {
		// ServeMap leaves dst's dirty interval untouched, so when dst
		// aliases c the recompute below still reads pristine addends.
		if lo, hi, ok := e.prog.ServeMap(&e.cur, e.all-n, fp.OpFMA, dst, a, b, c); ok {
			e.statServed += n - uint64(hi-lo)
			if lo < hi {
				fp.FMAN(e.inner, dst[lo:hi], a[lo:hi], b[lo:hi], c[lo:hi])
			}
			return
		}
	}
	fp.FMAN(e.inner, dst, a, b, c)
}

// DotFMABlock implements fp.BatchEnv by running the chains in order,
// each through DotFMA's own strike/replay/bulk logic — the block shape
// adds no new fault semantics beyond its member chains.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) DotFMABlock(out []fp.Bits, acc fp.Bits, u, v []fp.Bits, stride int) {
	for t := range out {
		out[t] = e.DotFMA(acc, u, v[t*stride:t*stride+len(u)])
	}
}

// GemmFMA implements fp.BatchEnv. The grid is handled at chain
// granularity with one grid-level canStrike instead of one per chain:
//
//   - no possible strike: every chain bulk-serves via gemmChains;
//   - a single operation fault in the window (the campaign common
//     case): the struck chain alone decomposes through DotFMA's exact
//     scalar matching, and the chain ranges before and after it
//     bulk-serve — so a strike costs k scalar operations plus two
//     bulk calls, not rows*cols chain dispatches;
//   - modulo (persistent) faults and armed DUE hooks: the grid
//     decomposes into its rows like the package fallback, with each
//     row's chains going through DotFMABlock (and so DotFMA's
//     strike/replay/bulk logic), keeping every per-operation hook
//     exact.
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) GemmFMA(out, accs, a, bt []fp.Bits, rows, cols, k int) {
	chains := rows * cols
	n := uint64(chains) * uint64(k)
	if n == 0 {
		return
	}
	if !e.canStrike(fp.OpFMA, n) {
		e.gemmChains(out, accs, a, bt, rows, cols, k, 0, chains)
		return
	}
	if !e.due && e.fault.Modulo == 0 {
		// canStrike with no DUE hooks armed means exactly one dynamic
		// operation in the window is struck (target operand/result,
		// kind FMA or any); isolate its chain.
		ctr := e.all
		if !e.fault.AnyKind {
			ctr = e.byKind[fp.OpFMA]
		}
		t0 := int((e.fault.Index - ctr) / uint64(k))
		e.gemmChains(out, accs, a, bt, rows, cols, k, 0, t0)
		acc := e.FromFloat64(0)
		if accs != nil {
			acc = accs[t0/cols]
		}
		row, col := t0/cols, t0%cols
		out[t0] = e.DotFMA(acc, a[row*k:(row+1)*k], bt[col*k:col*k+k])
		e.gemmChains(out, accs, a, bt, rows, cols, k, t0+1, chains)
		return
	}
	zero := e.FromFloat64(0)
	for i := 0; i < rows; i++ {
		acc := zero
		if accs != nil {
			acc = accs[i]
		}
		e.DotFMABlock(out[i*cols:(i+1)*cols], acc, a[i*k:(i+1)*k], bt, k)
	}
}

// gemmChains bulk-executes the grid's chains [first, limit): the
// counters advance in one step, and the chains are served from the
// replay trace (one lookup per chain), from the compiled program (one
// slab compare resolves the fault's dirty rows/columns; clean chains
// serve from the trace, dirty ones recompute), or recomputed through
// the inner environment. The caller guarantees — via canStrike on a
// window covering the range — that no strike or DUE hook fires within
// these chains.
func (e *Env) gemmChains(out, accs, a, bt []fp.Bits, rows, cols, k, first, limit int) {
	if first >= limit {
		return
	}
	n := uint64(limit-first) * uint64(k)
	e.advance(fp.OpFMA, n)
	pos := e.all - n
	if e.replayable() {
		// Only final accumulators leave the chains: absolute chain t
		// ends at stream position pos + (t-first+1)*k - 1.
		for t := first; t < limit; t++ {
			out[t] = e.replay[pos+uint64((t-first+1)*k)-1]
		}
		e.statReplayed += n
		return
	}
	if e.compiled() && e.prog.ServeGemm(&e.cur, pos, out, accs, a, bt, rows, cols, k, first, limit, e.inner) {
		// Slab-granular: the program resolved the whole range, serving
		// clean chains and recomputing dirty ones internally, so the
		// serve counter attributes the full window to the slab path.
		e.statServed += n
		return
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
//mixedrelvet:hotpath batched injection inner loop
func (e *Env) AXPY(dst []fp.Bits, s fp.Bits, x []fp.Bits) {
	n := uint64(len(x))
	if n == 0 {
		return
	}
	if e.canStrike(fp.OpFMA, n) {
		for i, xi := range x {
			dst[i] = e.FMA(s, xi, dst[i])
		}
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
