package inject

import (
	"fmt"
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/traceir"
)

// noBatch hides the batch methods of an environment, forcing the fp
// batch helpers onto their scalar decomposition — the reference behavior
// the injector's batch path must reproduce bit-for-bit.
type noBatch struct {
	fp.Env
}

// traceRec records every scalar operation result, reproducing the trace
// exec's recorder would capture for the same stream.
type traceRec struct {
	fp.Env
	trace []fp.Bits
}

func (r *traceRec) rec(b fp.Bits) fp.Bits { r.trace = append(r.trace, b); return b }

func (r *traceRec) Add(a, b fp.Bits) fp.Bits    { return r.rec(r.Env.Add(a, b)) }
func (r *traceRec) Sub(a, b fp.Bits) fp.Bits    { return r.rec(r.Env.Sub(a, b)) }
func (r *traceRec) Mul(a, b fp.Bits) fp.Bits    { return r.rec(r.Env.Mul(a, b)) }
func (r *traceRec) Div(a, b fp.Bits) fp.Bits    { return r.rec(r.Env.Div(a, b)) }
func (r *traceRec) FMA(a, b, c fp.Bits) fp.Bits { return r.rec(r.Env.FMA(a, b, c)) }
func (r *traceRec) Sqrt(a fp.Bits) fp.Bits      { return r.rec(r.Env.Sqrt(a)) }
func (r *traceRec) Exp(a fp.Bits) fp.Bits       { return r.rec(r.Env.Exp(a)) }

// addN, mulN and fmaN are element-wise loops of scalar operations, and
// dotBlock a block of FMA chains against one shared vector, as
// scalar-coded kernels issue them: through the injector's scalar and
// DotFMA paths.
func addN(env fp.Env, dst, a, b []fp.Bits) {
	for i, ai := range a {
		dst[i] = env.Add(ai, b[i])
	}
}

func mulN(env fp.Env, dst, a, b []fp.Bits) {
	for i, ai := range a {
		dst[i] = env.Mul(ai, b[i])
	}
}

func fmaN(env fp.Env, dst, a, b, c []fp.Bits) {
	for i, ai := range a {
		dst[i] = env.FMA(ai, b[i], c[i])
	}
}

func dotBlock(env fp.Env, out []fp.Bits, acc fp.Bits, u, v []fp.Bits, stride int) {
	for t := range out {
		out[t] = fp.DotFMA(env, acc, u, v[t*stride:t*stride+len(u)])
	}
}

// runStream drives a fixed mixed batch/scalar operation stream through
// env and returns every produced value. It mirrors the shapes kernels
// use: dot chains, element-wise loops, broadcast AXPYs, GEMM grids, and
// interleaved scalar operations.
func runStream(env fp.Env, f fp.Format) []fp.Bits {
	mk := func(n, salt int) []fp.Bits {
		out := make([]fp.Bits, n)
		for i := range out {
			out[i] = f.FromFloat64(0.25 + float64((i*7+salt*3)%23)/16)
		}
		return out
	}
	a7, b7 := mk(7, 1), mk(7, 2)
	a5, b5 := mk(5, 3), mk(5, 4)
	a4, b4 := mk(4, 5), mk(4, 6)
	x6, d6 := mk(6, 7), mk(6, 8)
	a3, b3, c3 := mk(3, 9), mk(3, 10), mk(3, 11)

	var out []fp.Bits
	out = append(out, fp.DotFMA(env, env.FromFloat64(0), a7, b7))
	dst5 := make([]fp.Bits, 5)
	addN(env, dst5, a5, b5)
	out = append(out, dst5...)
	out = append(out, env.Mul(out[0], dst5[0]))
	dst4 := make([]fp.Bits, 4)
	mulN(env, dst4, a4, b4)
	out = append(out, dst4...)
	dst6 := append([]fp.Bits(nil), d6...)
	fp.AXPY(env, dst6, out[1], x6)
	out = append(out, dst6...)
	dst3 := make([]fp.Bits, 3)
	fmaN(env, dst3, a3, b3, c3)
	out = append(out, dst3...)
	out = append(out, env.Add(out[2], dst3[0]))
	out = append(out, fp.DotFMA(env, out[3], a3, b3)) // second chain, shares operands
	// Empty and length-1 batches must be no-ops / single ops.
	out = append(out, fp.DotFMA(env, out[4], nil, nil))
	addN(env, dst3[:1], a3[:1], b3[:1])
	out = append(out, dst3[0])
	// Shaped work: a 3-chain block over a shared vector (3x2 FMAs) and
	// a 2x2 grid with per-row accumulators (2x2x2 FMAs).
	blk := make([]fp.Bits, 3)
	dotBlock(env, blk, out[5], a4[:2], x6, 2)
	out = append(out, blk...)
	grid := make([]fp.Bits, 4)
	fp.GemmFMA(env, grid, b3[:2], a4, b4, 2, 2, 2)
	out = append(out, grid...)
	return out
}

// streamOps is the dynamic operation count of runStream
// (7+5+1+4+6+3+1+3+0+1 + 6 block + 8 grid).
const streamOps = 45

// sweepFaults enumerates the fault shapes the equivalence tests sweep:
// every index through (and past) the stream, result and operand targets,
// any-kind and per-kind matching, and persistent modulo faults.
func sweepFaults() []OpFault {
	var faults []OpFault
	for idx := uint64(0); idx <= streamOps+2; idx++ {
		faults = append(faults,
			OpFault{AnyKind: true, Index: idx, Bit: int(idx) % 16, Target: TargetResult},
			OpFault{AnyKind: true, Index: idx, Bit: 14, Target: TargetOperand, OperandIdx: int(idx) % 3},
			OpFault{Kind: fp.OpFMA, Index: idx, Bit: 9, Target: TargetResult},
			OpFault{Kind: fp.OpAdd, Index: idx, Bit: 5, Target: TargetOperand, OperandIdx: 1},
			OpFault{Kind: fp.OpMul, Index: idx, Bit: 3, Target: TargetResult},
		)
	}
	for _, mod := range []uint64{3, 5, 11} {
		faults = append(faults,
			OpFault{AnyKind: true, Index: 1, Modulo: mod, Bit: 7, Target: TargetResult},
			OpFault{Kind: fp.OpFMA, Index: 2, Modulo: mod, Bit: 2, Target: TargetOperand, OperandIdx: 2},
		)
	}
	faults = append(faults, OpFault{AnyKind: true, Index: 4, Bit: 1, Target: TargetIntState})
	return faults
}

// TestBatchInjectionMatchesScalar proves the injector's batch fast path
// is observationally identical to scalar decomposition for every fault
// in the sweep: same outputs, same corruption count, same counters.
func TestBatchInjectionMatchesScalar(t *testing.T) {
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		for _, fault := range sweepFaults() {
			fault := fault
			t.Run(fmt.Sprintf("%v/%+v", f, fault), func(t *testing.T) {
				be := NewEnv(fp.NewMachine(f), fault)
				outBatch := runStream(be, f)
				se := NewEnv(fp.NewMachine(f), fault)
				outScalar := runStream(noBatch{se}, f)

				if len(outBatch) != len(outScalar) {
					t.Fatalf("output lengths differ: %d vs %d", len(outBatch), len(outScalar))
				}
				for i := range outBatch {
					if outBatch[i] != outScalar[i] {
						t.Fatalf("output %d: batch %#x != scalar %#x", i, outBatch[i], outScalar[i])
					}
				}
				if be.Applied() != se.Applied() {
					t.Fatalf("applied: batch %d != scalar %d", be.Applied(), se.Applied())
				}
				if be.all != se.all || be.byKind != se.byKind {
					t.Fatalf("counters diverged: batch all=%d byKind=%v, scalar all=%d byKind=%v",
						be.all, be.byKind, se.all, se.byKind)
				}
			})
		}
	}
}

// TestBatchInjectionReplayMatchesScalar repeats the sweep with the
// fault-free result trace installed, exercising the collapsed replay
// path (a whole unstruck batch served as one or n trace lookups).
func TestBatchInjectionReplayMatchesScalar(t *testing.T) {
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		rec := &traceRec{Env: fp.NewMachine(f)}
		runStream(rec, f) // noBatch semantics: *traceRec has no batch methods
		if len(rec.trace) != streamOps {
			t.Fatalf("%v: trace has %d ops, want %d (update streamOps)", f, len(rec.trace), streamOps)
		}
		for _, fault := range sweepFaults() {
			fault := fault
			t.Run(fmt.Sprintf("%v/%+v", f, fault), func(t *testing.T) {
				be := NewEnv(fp.NewMachine(f), fault)
				be.replay = rec.trace
				outBatch := runStream(be, f)
				se := NewEnv(fp.NewMachine(f), fault)
				outScalar := runStream(noBatch{se}, f)

				for i := range outBatch {
					if outBatch[i] != outScalar[i] {
						t.Fatalf("output %d: replayed batch %#x != scalar %#x", i, outBatch[i], outScalar[i])
					}
				}
				if be.Applied() != se.Applied() {
					t.Fatalf("applied: batch %d != scalar %d", be.Applied(), se.Applied())
				}
			})
		}
	}
}

// TestGemmServedCountsOnlyServedOps corrupts a grid's operand slabs, as
// a memory fault does, and requires the compare-serve counter to cover
// exactly the operations ServeGemm did not recompute: each chain of a
// dirty row or column recomputes from its first corrupted element on,
// and everything else is served.
func TestGemmServedCountsOnlyServedOps(t *testing.T) {
	const rows, cols, k = 4, 5, 6
	const n = rows * cols * k
	f := fp.Single
	m := fp.NewMachine(f)
	mk := func(len, salt int) []fp.Bits {
		out := make([]fp.Bits, len)
		for i := range out {
			out[i] = f.FromFloat64(0.5 + float64((i*5+salt)%17)/8)
		}
		return out
	}
	accs, a, bt := mk(rows, 1), mk(rows*k, 2), mk(cols*k, 3)
	rec := traceir.NewRecorder(m)
	rec.GemmFMA(make([]fp.Bits, rows*cols), accs, a, bt, rows, cols, k)
	prog := rec.Compile()

	const row, ea, col, eb = 2, 4, 3, 1
	cases := []struct {
		name       string
		dirtyA     bool
		dirtyBt    bool
		recomputed uint64
	}{
		{"clean", false, false, 0},
		{"row", true, false, cols * (k - ea)},
		{"column", false, true, rows * (k - eb)},
		// Chain (row, col) serves only the prefix before its first
		// corrupted element, eb.
		{"row-and-column", true, true, (cols-1)*(k-ea) + (rows-1)*(k-eb) + (k - eb)},
	}
	for _, tc := range cases {
		ca := append([]fp.Bits(nil), a...)
		cbt := append([]fp.Bits(nil), bt...)
		if tc.dirtyA {
			ca[row*k+ea] ^= 1 << 20
		}
		if tc.dirtyBt {
			cbt[col*k+eb] ^= 1 << 21
		}
		e := NewEnv(m)
		e.prog = prog
		got := make([]fp.Bits, rows*cols)
		e.GemmFMA(got, accs, ca, cbt, rows, cols, k)
		want := make([]fp.Bits, rows*cols)
		fp.GemmFMA(m, want, accs, ca, cbt, rows, cols, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: out[%d] = %#x, want %#x", tc.name, i, got[i], want[i])
			}
		}
		if e.statServed != n-tc.recomputed || e.statReplayed != 0 {
			t.Errorf("%s: served %d replayed %d, want served %d (%d of %d recomputed)",
				tc.name, e.statServed, e.statReplayed, n-tc.recomputed, tc.recomputed, n)
		}
	}
}
