package traceir

import "mixedrel/internal/fp"

// MaxOps bounds the per-configuration result trace: beyond this many
// dynamic operations (32 MiB of Bits) the trace is dropped and
// injectors fall back to full recomputation. Exported so internal/exec
// can keep its "trace too long → Results() == nil" contract in one
// place.
const MaxOps = 1 << 22

// maxCompiledOps bounds the IR on top of the result-trace cap: a
// program over this many operations would carry an operand slab of
// several times the size, so the IR is dropped (Compile returns nil)
// while the flat result trace — and with it the existing replay fast
// path — is kept as long as it fits MaxOps.
const maxCompiledOps = 1 << 21

// Recorder captures one fault-free kernel execution as the trace IR.
// It implements fp.Env and fp.BatchEnv and must sit below fp.Counting
// in the recording stack — the exact stream position an injecting
// environment occupies in a faulty run — so that dynamic operation i
// of the recording is dynamic operation i of every replay, and a batch
// call recorded here is the same batch call the injector observes.
//
// It records operands only where the injector compare-serves: the
// ScalarServed kinds as KScalar regions, and every batch call as its
// own region. Every other scalar operation extends an operand-free KRun
// region in place, so a scalar-coded kernel costs one region per
// stretch between served operations and batches, not one per operation.
//
// Scalar operations inside batches are executed through the inner
// environment's *scalar* methods so every chain intermediate lands in
// the result trace (the injector's scalar path replays per-operation);
// the BatchEnv contract makes this bit-identical to the inner batch
// fast paths.
type Recorder struct {
	inner     fp.Env
	ops       uint64
	regions   []Region
	operands  []fp.Bits
	results   []fp.Bits   // the result trace's current chunk
	full      [][]fp.Bits // its earlier, full chunks
	done      int         // results in full
	tails     []fp.Bits   // every KGemm grid's chain results, row-major
	truncated bool        // result trace exceeded MaxOps; nothing is usable
	irDropped bool        // IR exceeded maxCompiledOps; results still usable
}

// NewRecorder returns a recorder computing through inner (the
// reference machine for the configuration's format).
func NewRecorder(inner fp.Env) *Recorder { return &Recorder{inner: inner} }

// Ops returns the number of dynamic operations recorded so far.
func (r *Recorder) Ops() uint64 { return r.ops }

// Results returns the flat per-operation result trace, or nil when the
// execution exceeded MaxOps (a truncated trace is unusable for
// replay).
func (r *Recorder) Results() []fp.Bits {
	if r.truncated {
		return nil
	}
	r.joinResults()
	return r.results
}

// Compile returns the recorded region stream as the executable
// Program, or nil when the execution overflowed a cap or the recorded
// stream fails validation (in which case callers simply keep the
// uncompiled replay paths). The Program takes over the recorder's
// slices; the recorder must not be used afterwards.
func (r *Recorder) Compile() *Program {
	if r.truncated || r.irDropped {
		return nil
	}
	r.joinResults()
	return finalize(&Program{
		format:   r.inner.Format(),
		ops:      r.ops,
		regions:  r.regions,
		operands: r.operands,
		results:  r.results,
		tails:    r.tails,
	})
}

// irFull reports whether the IR can no longer accept n more
// operations, dropping the accumulated regions on first overflow.
func (r *Recorder) irFull(n int) bool {
	if r.irDropped {
		return true
	}
	if r.ops+uint64(n) > maxCompiledOps {
		r.irDropped = true
		r.regions, r.operands, r.tails = nil, nil, nil
		return true
	}
	return false
}

// pushResult appends one operation result to the flat trace.
func (r *Recorder) pushResult(b fp.Bits) {
	if len(r.results) == cap(r.results) && !r.growResults() {
		return
	}
	r.results = append(r.results, b)
}

// Result chunks start at minResultChunk elements and double with the
// trace up to maxResultChunk, so growing the trace never copies it.
const (
	minResultChunk = 1 << 10
	maxResultChunk = 1 << 16
)

// growResults starts a new chunk of the result trace once the current
// one is full, and reports whether the trace can take another result:
// it cannot once truncated at MaxOps, which drops it.
func (r *Recorder) growResults() bool {
	if r.truncated {
		return false
	}
	n := r.done + len(r.results)
	if n >= MaxOps {
		r.truncated = true
		r.results, r.full = nil, nil
		return false
	}
	if len(r.results) > 0 {
		r.full = append(r.full, r.results)
		r.done = n
	}
	r.results = make([]fp.Bits, 0, min(max(n, minResultChunk), maxResultChunk, MaxOps-n))
	return true
}

// joinResults makes the result trace one slice of exactly its length,
// which the cached artifacts keep.
func (r *Recorder) joinResults() {
	if len(r.full) == 0 && len(r.results) == cap(r.results) {
		return
	}
	all := make([]fp.Bits, r.done+len(r.results))
	n := 0
	for _, c := range r.full {
		n += copy(all[n:], c)
	}
	copy(all[n:], r.results)
	r.results, r.full, r.done = all, nil, 0
}

// scalar records one scalar operation: a ScalarServed kind as a
// one-operation KScalar region with its operands (slots beyond the
// operation's arity are ignored), any other kind by extending the
// KRun region that ends the stream, or opening one.
func (r *Recorder) scalar(op fp.Op, a, b, c, res fp.Bits) fp.Bits {
	switch {
	case r.irFull(1):
	case !ScalarServed(op):
		if n := len(r.regions); n > 0 && r.regions[n-1].Kind == KRun {
			r.regions[n-1].N++
			break
		}
		r.regions = append(r.regions, Region{
			Kind: KRun, Start: r.ops, N: 1, Off: uint32(len(r.operands)),
		})
	default:
		r.regions = append(r.regions, Region{
			Kind: KScalar, Op: op, Start: r.ops, N: 1, Off: uint32(len(r.operands)),
		})
		switch arity(op) {
		case 1:
			r.operands = append(r.operands, a)
		case 2:
			r.operands = append(r.operands, a, b)
		default:
			r.operands = append(r.operands, a, b, c)
		}
	}
	r.pushResult(res)
	r.ops++
	return res
}

// Format implements fp.Env.
func (r *Recorder) Format() fp.Format { return r.inner.Format() }

// Add implements fp.Env.
func (r *Recorder) Add(a, b fp.Bits) fp.Bits {
	return r.scalar(fp.OpAdd, a, b, 0, r.inner.Add(a, b))
}

// Sub implements fp.Env.
func (r *Recorder) Sub(a, b fp.Bits) fp.Bits {
	return r.scalar(fp.OpSub, a, b, 0, r.inner.Sub(a, b))
}

// Mul implements fp.Env.
func (r *Recorder) Mul(a, b fp.Bits) fp.Bits {
	return r.scalar(fp.OpMul, a, b, 0, r.inner.Mul(a, b))
}

// Div implements fp.Env.
func (r *Recorder) Div(a, b fp.Bits) fp.Bits {
	return r.scalar(fp.OpDiv, a, b, 0, r.inner.Div(a, b))
}

// FMA implements fp.Env.
func (r *Recorder) FMA(a, b, c fp.Bits) fp.Bits {
	return r.scalar(fp.OpFMA, a, b, c, r.inner.FMA(a, b, c))
}

// Sqrt implements fp.Env.
func (r *Recorder) Sqrt(a fp.Bits) fp.Bits {
	return r.scalar(fp.OpSqrt, a, 0, 0, r.inner.Sqrt(a))
}

// Exp implements fp.Env.
func (r *Recorder) Exp(a fp.Bits) fp.Bits {
	return r.scalar(fp.OpExp, a, 0, 0, r.inner.Exp(a))
}

// FromFloat64 implements fp.Env.
func (r *Recorder) FromFloat64(v float64) fp.Bits { return r.inner.FromFloat64(v) }

// ToFloat64 implements fp.Env.
func (r *Recorder) ToFloat64(b fp.Bits) float64 { return r.inner.ToFloat64(b) }

// chain records one KChain region and executes it element-wise so the
// intermediate accumulators land in the result trace.
func (r *Recorder) chain(acc fp.Bits, a, b []fp.Bits) fp.Bits {
	n := len(a)
	if !r.irFull(n) {
		off := len(r.operands)
		r.operands = append(r.operands, acc)
		r.operands = append(r.operands, a...)
		r.operands = append(r.operands, b[:n]...)
		r.regions = append(r.regions, Region{
			Kind: KChain, Op: fp.OpFMA, Start: r.ops, N: uint32(n), Off: uint32(off),
		})
	}
	for i, ai := range a {
		acc = r.inner.FMA(ai, b[i], acc)
		r.pushResult(acc)
	}
	r.ops += uint64(n)
	return acc
}

// DotFMA implements fp.BatchEnv.
func (r *Recorder) DotFMA(acc fp.Bits, a, b []fp.Bits) fp.Bits {
	if len(a) == 0 {
		return acc
	}
	return r.chain(acc, a, b)
}

// AXPY implements fp.BatchEnv. dst is the per-element accumulator
// input, so its pristine values are snapshotted before the update.
func (r *Recorder) AXPY(dst []fp.Bits, s fp.Bits, x []fp.Bits) {
	n := len(x)
	if n == 0 {
		return
	}
	if !r.irFull(n) {
		off := len(r.operands)
		r.operands = append(r.operands, s)
		r.operands = append(r.operands, x...)
		r.operands = append(r.operands, dst[:n]...)
		r.regions = append(r.regions, Region{
			Kind: KAxpy, Op: fp.OpFMA, Start: r.ops, N: uint32(n), Off: uint32(off),
		})
	}
	fp.AXPY(r.inner, dst, s, x)
	for _, d := range dst[:n] {
		r.pushResult(d)
	}
	r.ops += uint64(n)
}

// GemmFMA implements fp.BatchEnv: the whole grid becomes one KGemm
// region with accumulator, a and bt slabs, executed chain-by-chain in
// row-major order so every intermediate lands in the result trace. The
// grid's out is appended to the tails slab, so a replay serves a range
// of chains with one copy instead of a strided gather from the results.
func (r *Recorder) GemmFMA(out, accs, a, bt []fp.Bits, rows, cols, k int) {
	n := rows * cols * k
	if n == 0 {
		return
	}
	zero := r.inner.FromFloat64(0)
	recorded := !r.irFull(n)
	if recorded {
		off := len(r.operands)
		if accs != nil {
			r.operands = append(r.operands, accs[:rows]...)
		} else {
			for i := 0; i < rows; i++ {
				r.operands = append(r.operands, zero)
			}
		}
		r.operands = append(r.operands, a[:rows*k]...)
		r.operands = append(r.operands, bt[:cols*k]...)
		r.regions = append(r.regions, Region{
			Kind: KGemm, Op: fp.OpFMA, Start: r.ops, N: uint32(n), Off: uint32(off),
			Rows: uint32(rows), Cols: uint32(cols), K: uint32(k), Tail: uint32(len(r.tails)),
		})
	}
	for i := 0; i < rows; i++ {
		acc0 := zero
		if accs != nil {
			acc0 = accs[i]
		}
		for j := 0; j < cols; j++ {
			acc := acc0
			for e := 0; e < k; e++ {
				acc = r.inner.FMA(a[i*k+e], bt[j*k+e], acc)
				r.pushResult(acc)
			}
			out[i*cols+j] = acc
		}
	}
	if recorded {
		r.tails = append(r.tails, out[:rows*cols]...)
	}
	r.ops += uint64(n)
}
