package fp

import (
	"math"
	"sync"
)

// f64Buf pools the decoded-operand scratch used by Machine.GemmFMA. The
// pointer boxing keeps sync.Pool round-trips allocation-free.
type f64Buf struct{ s []float64 }

var f64Pool = sync.Pool{New: func() any { return new(f64Buf) }}

func getF64(n int) *f64Buf {
	b := f64Pool.Get().(*f64Buf)
	if cap(b.s) < n {
		//mixedrelvet:allow hotalloc amortized scratch growth, steady state reuses the pooled buffer
		b.s = make([]float64, n)
	}
	b.s = b.s[:n]
	return b
}

func putF64(b *f64Buf) { f64Pool.Put(b) }

// BatchEnv is an optional extension of Env for kernel inner loops, with
// exactly the three shapes the kernels call: an FMA chain (DotFMA), a
// broadcast multiply-accumulate (AXPY) and a grid of chains (GemmFMA).
// Each batch operation is defined as *exactly* the sequence of scalar
// Env operations its fallback performs — same operation kinds, same
// order, same per-element round-to-nearest-even — so implementations may
// only differ in speed, never in bits. Kernels never call these methods
// directly; they go through the package-level DotFMA/AXPY/GemmFMA
// helpers, which decompose into scalar Env calls whenever the
// environment does not implement BatchEnv. That keeps every wrapper that
// intercepts scalar operations (injectors, recorders, custom
// instrumentation) in full control of the operation stream by default:
// only environments that explicitly implement BatchEnv take over a
// batch, and they are responsible for preserving scalar semantics.
//
// Slice contracts: b must have at least len(a) elements and dst at
// least len(x); dst is itself the accumulator in AXPY and must not
// otherwise alias the inputs.
type BatchEnv interface {
	Env
	// DotFMA folds acc through the chain acc = FMA(a[i], b[i], acc)
	// for i = 0..len(a)-1 and returns the final accumulator.
	DotFMA(acc Bits, a, b []Bits) Bits
	// AXPY sets dst[i] = FMA(s, x[i], dst[i]) — the broadcast
	// multiply-accumulate of elimination updates.
	AXPY(dst []Bits, s Bits, x []Bits)
	// GemmFMA computes the rows x cols grid of independent chains
	// out[i*cols+j] = DotFMA(acc_i, a[i*k:(i+1)*k], bt[j*k:(j+1)*k])
	// in row-major (i, j) order, where acc_i is accs[i], or
	// FromFloat64(0) for every row when accs is nil. This is GEMM
	// against a pre-transposed right-hand side, and equally the im2col
	// convolution (rows = output channels, cols = pixels) and the dense
	// layer (cols = 1). A fast path may decode a and bt once for the
	// whole grid; instrumented environments run the chains in order.
	GemmFMA(out, accs, a, bt []Bits, rows, cols, k int)
}

// DotFMA computes the FMA chain acc = env.FMA(a[i], b[i], acc) over the
// slices and returns the final accumulator, using env's batch fast path
// when it has one.
func DotFMA(env Env, acc Bits, a, b []Bits) Bits {
	if be, ok := env.(BatchEnv); ok {
		return be.DotFMA(acc, a, b)
	}
	for i, ai := range a {
		acc = env.FMA(ai, b[i], acc)
	}
	return acc
}

// AXPY sets dst[i] = env.FMA(s, x[i], dst[i]) for i = 0..len(x)-1.
func AXPY(env Env, dst []Bits, s Bits, x []Bits) {
	if be, ok := env.(BatchEnv); ok {
		be.AXPY(dst, s, x)
		return
	}
	for i, xi := range x {
		dst[i] = env.FMA(s, xi, dst[i])
	}
}

// FromFloat64N encodes xs into dst (which must be at least as long),
// hoisting the per-element format dispatch of Format.FromFloat64 out of
// the loop. Encoding is a pure conversion, not an Env operation, so no
// wrapper semantics are involved.
func FromFloat64N(f Format, dst []Bits, xs []float64) {
	switch f {
	case Half:
		for i, x := range xs {
			dst[i] = Bits(halfFromFloat64(x))
		}
	case BFloat16:
		for i, x := range xs {
			dst[i] = Bits(bfloatFromFloat64(x))
		}
	case Single:
		for i, x := range xs {
			dst[i] = Bits(math.Float32bits(float32(x)))
		}
	case Double:
		for i, x := range xs {
			dst[i] = Bits(math.Float64bits(x))
		}
	default:
		for i, x := range xs {
			dst[i] = f.FromFloat64(x)
		}
	}
}

// ToFloat64N decodes bs (encodings in format f) into dst (which must be
// at least as long), hoisting the per-element format dispatch.
func ToFloat64N(f Format, dst []float64, bs []Bits) {
	switch f {
	case Half:
		for i, b := range bs {
			dst[i] = halfDecode[uint16(b)]
		}
	case BFloat16:
		for i, b := range bs {
			dst[i] = bfloatDecode[uint16(b)]
		}
	case Single:
		for i, b := range bs {
			dst[i] = float64(math.Float32frombits(uint32(b)))
		}
	case Double:
		for i, b := range bs {
			dst[i] = math.Float64frombits(uint64(b))
		}
	default:
		for i, b := range bs {
			dst[i] = f.ToFloat64(b)
		}
	}
}

// GemmFMA computes out[i*cols+j] = DotFMA(env, acc_i, a[i*k:(i+1)*k],
// bt[j*k:(j+1)*k]) for the whole rows x cols grid in row-major order,
// with acc_i = accs[i] (or env.FromFloat64(0) when accs is nil), using
// env's batch fast path when it has one.
func GemmFMA(env Env, out, accs, a, bt []Bits, rows, cols, k int) {
	if be, ok := env.(BatchEnv); ok {
		be.GemmFMA(out, accs, a, bt, rows, cols, k)
		return
	}
	zero := env.FromFloat64(0)
	for i := 0; i < rows; i++ {
		acc := zero
		if accs != nil {
			acc = accs[i]
		}
		for j := 0; j < cols; j++ {
			out[i*cols+j] = DotFMA(env, acc, a[i*k:(i+1)*k], bt[j*k:(j+1)*k])
		}
	}
}

// Machine's batch fast paths perform bit-for-bit the scalar computation
// — decode each operand, one binary64 operation, one round-to-nearest-
// even encode per element — minus the per-operation costs the scalar
// path cannot avoid: the interface dispatch, the format switch, and for
// the 16-bit formats three separate ToFloat64 switch dispatches. The
// 16-bit loops read the PR 1 decode tables directly and the accumulator
// of a DotFMA chain stays in registers between steps (re-encoded and
// re-decoded each step, exactly as the scalar chain would through Bits).

// DotFMA implements BatchEnv.
//
//mixedrelvet:hotpath vectorized softfloat inner loop
func (m *Machine) DotFMA(acc Bits, a, b []Bits) Bits {
	switch m.f {
	case Single:
		x := math.Float32frombits(uint32(acc))
		for i, ai := range a {
			x = float32(math.FMA(
				float64(math.Float32frombits(uint32(ai))),
				float64(math.Float32frombits(uint32(b[i]))),
				float64(x)))
		}
		return Bits(math.Float32bits(x))
	case Double:
		x := math.Float64frombits(uint64(acc))
		for i, ai := range a {
			x = math.FMA(math.Float64frombits(uint64(ai)), math.Float64frombits(uint64(b[i])), x)
		}
		return Bits(math.Float64bits(x))
	case Half:
		h := uint16(acc)
		for i, ai := range a {
			h = halfFromFloat64(math.FMA(halfDecode[uint16(ai)], halfDecode[uint16(b[i])], halfDecode[h]))
		}
		return Bits(h)
	case BFloat16:
		h := uint16(acc)
		for i, ai := range a {
			h = bfloatFromFloat64(math.FMA(bfloatDecode[uint16(ai)], bfloatDecode[uint16(b[i])], bfloatDecode[h]))
		}
		return Bits(h)
	}
	for i, ai := range a {
		acc = m.FMA(ai, b[i], acc)
	}
	return acc
}

// AddN sets dst[i] = m.Add(a[i], b[i]) for i = 0..len(a)-1 at the
// machine's batch speed. It is a plain method outside BatchEnv: no
// kernel issues element-wise batches, and it serves as the per-operation
// cost probe and the batch path of the exhaustive 16-bit proofs.
//
//mixedrelvet:hotpath vectorized softfloat inner loop
func (m *Machine) AddN(dst, a, b []Bits) {
	switch m.f {
	case Single:
		for i, ai := range a {
			dst[i] = Bits(math.Float32bits(math.Float32frombits(uint32(ai)) + math.Float32frombits(uint32(b[i]))))
		}
	case Double:
		for i, ai := range a {
			dst[i] = Bits(math.Float64bits(math.Float64frombits(uint64(ai)) + math.Float64frombits(uint64(b[i]))))
		}
	case Half:
		for i, ai := range a {
			dst[i] = Bits(halfFromFloat64(halfDecode[uint16(ai)] + halfDecode[uint16(b[i])]))
		}
	case BFloat16:
		for i, ai := range a {
			dst[i] = Bits(bfloatFromFloat64(bfloatDecode[uint16(ai)] + bfloatDecode[uint16(b[i])]))
		}
	default:
		for i, ai := range a {
			dst[i] = m.Add(ai, b[i])
		}
	}
}

// MulN sets dst[i] = m.Mul(a[i], b[i]) for i = 0..len(a)-1 at the
// machine's batch speed. It is a plain method outside BatchEnv: no
// kernel issues element-wise batches, and it serves as the per-operation
// cost probe and the batch path of the exhaustive 16-bit proofs.
//
//mixedrelvet:hotpath vectorized softfloat inner loop
func (m *Machine) MulN(dst, a, b []Bits) {
	switch m.f {
	case Single:
		for i, ai := range a {
			dst[i] = Bits(math.Float32bits(math.Float32frombits(uint32(ai)) * math.Float32frombits(uint32(b[i]))))
		}
	case Double:
		for i, ai := range a {
			dst[i] = Bits(math.Float64bits(math.Float64frombits(uint64(ai)) * math.Float64frombits(uint64(b[i]))))
		}
	case Half:
		for i, ai := range a {
			dst[i] = Bits(halfFromFloat64(halfDecode[uint16(ai)] * halfDecode[uint16(b[i])]))
		}
	case BFloat16:
		for i, ai := range a {
			dst[i] = Bits(bfloatFromFloat64(bfloatDecode[uint16(ai)] * bfloatDecode[uint16(b[i])]))
		}
	default:
		for i, ai := range a {
			dst[i] = m.Mul(ai, b[i])
		}
	}
}

// FMAN sets dst[i] = m.FMA(a[i], b[i], c[i]) for i = 0..len(a)-1 at the
// machine's batch speed. It is a plain method outside BatchEnv: no
// kernel issues element-wise batches, and it serves as the per-operation
// cost probe and the batch path of the exhaustive 16-bit proofs.
//
//mixedrelvet:hotpath vectorized softfloat inner loop
func (m *Machine) FMAN(dst, a, b, c []Bits) {
	switch m.f {
	case Single:
		for i, ai := range a {
			dst[i] = Bits(math.Float32bits(float32(math.FMA(
				float64(math.Float32frombits(uint32(ai))),
				float64(math.Float32frombits(uint32(b[i]))),
				float64(math.Float32frombits(uint32(c[i])))))))
		}
	case Double:
		for i, ai := range a {
			dst[i] = Bits(math.Float64bits(math.FMA(
				math.Float64frombits(uint64(ai)),
				math.Float64frombits(uint64(b[i])),
				math.Float64frombits(uint64(c[i])))))
		}
	case Half:
		for i, ai := range a {
			dst[i] = Bits(halfFromFloat64(math.FMA(halfDecode[uint16(ai)], halfDecode[uint16(b[i])], halfDecode[uint16(c[i])])))
		}
	case BFloat16:
		for i, ai := range a {
			dst[i] = Bits(bfloatFromFloat64(math.FMA(bfloatDecode[uint16(ai)], bfloatDecode[uint16(b[i])], bfloatDecode[uint16(c[i])])))
		}
	default:
		for i, ai := range a {
			dst[i] = m.FMA(ai, b[i], c[i])
		}
	}
}

// AXPY implements BatchEnv.
//
//mixedrelvet:hotpath vectorized softfloat inner loop
func (m *Machine) AXPY(dst []Bits, s Bits, x []Bits) {
	switch m.f {
	case Single:
		sv := float64(math.Float32frombits(uint32(s)))
		for i, xi := range x {
			dst[i] = Bits(math.Float32bits(float32(math.FMA(
				sv,
				float64(math.Float32frombits(uint32(xi))),
				float64(math.Float32frombits(uint32(dst[i])))))))
		}
	case Double:
		sv := math.Float64frombits(uint64(s))
		for i, xi := range x {
			dst[i] = Bits(math.Float64bits(math.FMA(sv, math.Float64frombits(uint64(xi)), math.Float64frombits(uint64(dst[i])))))
		}
	case Half:
		sv := halfDecode[uint16(s)]
		for i, xi := range x {
			dst[i] = Bits(halfFromFloat64(math.FMA(sv, halfDecode[uint16(xi)], halfDecode[uint16(dst[i])])))
		}
	case BFloat16:
		sv := bfloatDecode[uint16(s)]
		for i, xi := range x {
			dst[i] = Bits(bfloatFromFloat64(math.FMA(sv, bfloatDecode[uint16(xi)], bfloatDecode[uint16(dst[i])])))
		}
	default:
		for i, xi := range x {
			dst[i] = m.FMA(s, xi, dst[i])
		}
	}
}

// Strike is the schedule of a persistent result fault over a window of
// FMA operations, counted from the window's first: the accumulator is
// XORed with Mask right after the FMA at offset First and right after
// every Period-th FMA from there on (Period > 0). A First at or past the
// window's end strikes nothing, which is how the fault-free grid runs
// the same loops. An injector hands a Modulo result fault to the
// machine in this form once nothing else can act on the window's
// operations, so a struck grid keeps the interleaved speed of a clean
// one.
type Strike struct {
	First, Period int
	Mask          Bits
}

// noStrike is the schedule of a fault-free grid.
var noStrike = Strike{First: math.MaxInt, Period: 1}

// in returns the position, within a chain whose first FMA lies at window
// offset w, of the chain's first struck FMA; a position at or past the
// chain's length means the schedule does not strike the chain.
func (s Strike) in(w int) int {
	if s.First >= w {
		return s.First - w
	}
	return (s.Period - (w-s.First)%s.Period) % s.Period
}

// The grid loops below run each group of interleaved chains one of two
// ways. A group the schedule misses (every clean grid's) is one call of
// the format's plain kernel. A struck group runs the same steps inline,
// keeping each chain's next struck position in at and testing only the
// nearest of them, next, once per step; at a struck step the hit helpers
// apply the strike to the chains it lands on. The two are kept apart
// because the per-step test costs the clean kernels 3–14%, and a call
// per strike segment cost the struck grids 1.3–1.6× (EXPERIMENTS.md
// §Performance). hit16, hit32 and hit64 apply position at to a chain's
// accumulator after the FMA at chain position k: on a strike the
// accumulator is XORed with mask mk and at moves one period p on.

func hit16(h uint16, at, k int, mk uint16, p int) (uint16, int) {
	if k != at {
		return h, at
	}
	return h ^ mk, at + p
}

func hit32(x float32, at, k int, mk uint32, p int) (float32, int) {
	if k != at {
		return x, at
	}
	return math.Float32frombits(math.Float32bits(x) ^ mk), at + p
}

func hit64(x float64, at, k int, mk uint64, p int) (float64, int) {
	if k != at {
		return x, at
	}
	return math.Float64frombits(math.Float64bits(x) ^ mk), at + p
}

// The plain kernels advance four or eight chains together over the
// whole of their operand slices, each chain's steps strictly in order:
// the FMA of one chain's step overlaps the others' serial
// decode→FMA→round latency. u is the operand shared by every chain and
// v0..v7 their own, all of u's length.

func double8(x0, x1, x2, x3, x4, x5, x6, x7 float64, u, v0, v1, v2, v3, v4, v5, v6, v7 []Bits) (float64, float64, float64, float64, float64, float64, float64, float64) {
	L := len(u)
	v0, v1, v2, v3, v4, v5, v6, v7 = v0[:L], v1[:L], v2[:L], v3[:L], v4[:L], v5[:L], v6[:L], v7[:L]
	for k := 0; k < L; k++ {
		uk := math.Float64frombits(uint64(u[k]))
		x0 = math.FMA(uk, math.Float64frombits(uint64(v0[k])), x0)
		x1 = math.FMA(uk, math.Float64frombits(uint64(v1[k])), x1)
		x2 = math.FMA(uk, math.Float64frombits(uint64(v2[k])), x2)
		x3 = math.FMA(uk, math.Float64frombits(uint64(v3[k])), x3)
		x4 = math.FMA(uk, math.Float64frombits(uint64(v4[k])), x4)
		x5 = math.FMA(uk, math.Float64frombits(uint64(v5[k])), x5)
		x6 = math.FMA(uk, math.Float64frombits(uint64(v6[k])), x6)
		x7 = math.FMA(uk, math.Float64frombits(uint64(v7[k])), x7)
	}
	return x0, x1, x2, x3, x4, x5, x6, x7
}

func half4(h0, h1, h2, h3 uint16, u, v0, v1, v2, v3 []Bits) (uint16, uint16, uint16, uint16) {
	L := len(u)
	v0, v1, v2, v3 = v0[:L], v1[:L], v2[:L], v3[:L]
	for k := 0; k < L; k++ {
		uk := halfDecode[uint16(u[k])]
		h0 = halfFromFloat64(math.FMA(uk, halfDecode[uint16(v0[k])], halfDecode[h0]))
		h1 = halfFromFloat64(math.FMA(uk, halfDecode[uint16(v1[k])], halfDecode[h1]))
		h2 = halfFromFloat64(math.FMA(uk, halfDecode[uint16(v2[k])], halfDecode[h2]))
		h3 = halfFromFloat64(math.FMA(uk, halfDecode[uint16(v3[k])], halfDecode[h3]))
	}
	return h0, h1, h2, h3
}

func bfloat4(h0, h1, h2, h3 uint16, u, v0, v1, v2, v3 []Bits) (uint16, uint16, uint16, uint16) {
	L := len(u)
	v0, v1, v2, v3 = v0[:L], v1[:L], v2[:L], v3[:L]
	for k := 0; k < L; k++ {
		uk := bfloatDecode[uint16(u[k])]
		h0 = bfloatFromFloat64(math.FMA(uk, bfloatDecode[uint16(v0[k])], bfloatDecode[h0]))
		h1 = bfloatFromFloat64(math.FMA(uk, bfloatDecode[uint16(v1[k])], bfloatDecode[h1]))
		h2 = bfloatFromFloat64(math.FMA(uk, bfloatDecode[uint16(v2[k])], bfloatDecode[h2]))
		h3 = bfloatFromFloat64(math.FMA(uk, bfloatDecode[uint16(v3[k])], bfloatDecode[h3]))
	}
	return h0, h1, h2, h3
}

// grid8 advances eight binary32 chains on operands predecoded to
// binary64, each chain with its own row u0..u7 and column v0..v7, all
// of u0's length.
func grid8(x0, x1, x2, x3, x4, x5, x6, x7 float32, u0, u1, u2, u3, u4, u5, u6, u7, v0, v1, v2, v3, v4, v5, v6, v7 []float64) (float32, float32, float32, float32, float32, float32, float32, float32) {
	L := len(u0)
	u1, u2, u3, u4, u5, u6, u7 = u1[:L], u2[:L], u3[:L], u4[:L], u5[:L], u6[:L], u7[:L]
	v0, v1, v2, v3, v4, v5, v6, v7 = v0[:L], v1[:L], v2[:L], v3[:L], v4[:L], v5[:L], v6[:L], v7[:L]
	for k := 0; k < L; k++ {
		x0 = float32(math.FMA(u0[k], v0[k], float64(x0)))
		x1 = float32(math.FMA(u1[k], v1[k], float64(x1)))
		x2 = float32(math.FMA(u2[k], v2[k], float64(x2)))
		x3 = float32(math.FMA(u3[k], v3[k], float64(x3)))
		x4 = float32(math.FMA(u4[k], v4[k], float64(x4)))
		x5 = float32(math.FMA(u5[k], v5[k], float64(x5)))
		x6 = float32(math.FMA(u6[k], v6[k], float64(x6)))
		x7 = float32(math.FMA(u7[k], v7[k], float64(x7)))
	}
	return x0, x1, x2, x3, x4, x5, x6, x7
}

// dotStrike is DotFMA on a chain whose first FMA lies at window offset w
// of schedule s: the chain runs through DotFMA in segments, each ending
// at a struck FMA whose result is XORed with the mask.
func (m *Machine) dotStrike(acc Bits, a, b []Bits, s Strike, w int) Bits {
	i := 0
	for at := s.in(w); at < len(a); at += s.Period {
		acc = FlipMask(m.DotFMA(acc, a[i:at+1], b[i:at+1]), s.Mask)
		i = at + 1
	}
	return m.DotFMA(acc, a[i:], b[i:])
}

// dotBlock computes len(out) chains against one shared vector,
// out[t] = DotFMA(acc, u, v[t*stride:t*stride+len(u)]), under strike
// schedule s, with chain out[t]'s first FMA at window offset
// w + t*len(u). Double chains advance eight at a time and 16-bit ones
// four at a time through the plain kernels; each chain's own operation
// sequence is untouched, so every out[t] is bit-identical to a
// standalone DotFMA over the same slices. The shared vector u is decoded
// once per step for the whole group. Single chains run one by one here:
// GemmStrike interleaves binary32 grids on predecoded operands instead.
//
//mixedrelvet:hotpath vectorized softfloat inner loop
func (m *Machine) dotBlock(out []Bits, acc Bits, u, v []Bits, stride int, s Strike, w int) {
	L := len(u)
	p := s.Period
	t := 0
	switch m.f {
	case Double:
		a0 := math.Float64frombits(uint64(acc))
		mk := uint64(s.Mask)
		for ; t+8 <= len(out); t += 8 {
			v0, v1, v2, v3 := v[t*stride:][:L], v[(t+1)*stride:][:L], v[(t+2)*stride:][:L], v[(t+3)*stride:][:L]
			v4, v5, v6, v7 := v[(t+4)*stride:][:L], v[(t+5)*stride:][:L], v[(t+6)*stride:][:L], v[(t+7)*stride:][:L]
			var at [8]int
			for c := range at {
				at[c] = s.in(w + (t+c)*L)
			}
			next := min(at[0], at[1], at[2], at[3], at[4], at[5], at[6], at[7])
			x0, x1, x2, x3, x4, x5, x6, x7 := a0, a0, a0, a0, a0, a0, a0, a0
			if next >= L {
				x0, x1, x2, x3, x4, x5, x6, x7 = double8(x0, x1, x2, x3, x4, x5, x6, x7, u, v0, v1, v2, v3, v4, v5, v6, v7)
			} else {
				for k := 0; k < L; k++ {
					uk := math.Float64frombits(uint64(u[k]))
					x0 = math.FMA(uk, math.Float64frombits(uint64(v0[k])), x0)
					x1 = math.FMA(uk, math.Float64frombits(uint64(v1[k])), x1)
					x2 = math.FMA(uk, math.Float64frombits(uint64(v2[k])), x2)
					x3 = math.FMA(uk, math.Float64frombits(uint64(v3[k])), x3)
					x4 = math.FMA(uk, math.Float64frombits(uint64(v4[k])), x4)
					x5 = math.FMA(uk, math.Float64frombits(uint64(v5[k])), x5)
					x6 = math.FMA(uk, math.Float64frombits(uint64(v6[k])), x6)
					x7 = math.FMA(uk, math.Float64frombits(uint64(v7[k])), x7)
					if k == next {
						x0, at[0] = hit64(x0, at[0], next, mk, p)
						x1, at[1] = hit64(x1, at[1], next, mk, p)
						x2, at[2] = hit64(x2, at[2], next, mk, p)
						x3, at[3] = hit64(x3, at[3], next, mk, p)
						x4, at[4] = hit64(x4, at[4], next, mk, p)
						x5, at[5] = hit64(x5, at[5], next, mk, p)
						x6, at[6] = hit64(x6, at[6], next, mk, p)
						x7, at[7] = hit64(x7, at[7], next, mk, p)
						next = min(at[0], at[1], at[2], at[3], at[4], at[5], at[6], at[7])
					}
				}
			}
			out[t], out[t+1], out[t+2], out[t+3] = Bits(math.Float64bits(x0)), Bits(math.Float64bits(x1)), Bits(math.Float64bits(x2)), Bits(math.Float64bits(x3))
			out[t+4], out[t+5], out[t+6], out[t+7] = Bits(math.Float64bits(x4)), Bits(math.Float64bits(x5)), Bits(math.Float64bits(x6)), Bits(math.Float64bits(x7))
		}
	case Half:
		mk := uint16(s.Mask)
		for ; t+4 <= len(out); t += 4 {
			v0, v1, v2, v3 := v[t*stride:][:L], v[(t+1)*stride:][:L], v[(t+2)*stride:][:L], v[(t+3)*stride:][:L]
			var at [4]int
			for c := range at {
				at[c] = s.in(w + (t+c)*L)
			}
			next := min(at[0], at[1], at[2], at[3])
			h0, h1, h2, h3 := uint16(acc), uint16(acc), uint16(acc), uint16(acc)
			if next >= L {
				h0, h1, h2, h3 = half4(h0, h1, h2, h3, u, v0, v1, v2, v3)
			} else {
				for k := 0; k < L; k++ {
					uk := halfDecode[uint16(u[k])]
					h0 = halfFromFloat64(math.FMA(uk, halfDecode[uint16(v0[k])], halfDecode[h0]))
					h1 = halfFromFloat64(math.FMA(uk, halfDecode[uint16(v1[k])], halfDecode[h1]))
					h2 = halfFromFloat64(math.FMA(uk, halfDecode[uint16(v2[k])], halfDecode[h2]))
					h3 = halfFromFloat64(math.FMA(uk, halfDecode[uint16(v3[k])], halfDecode[h3]))
					if k == next {
						h0, at[0] = hit16(h0, at[0], next, mk, p)
						h1, at[1] = hit16(h1, at[1], next, mk, p)
						h2, at[2] = hit16(h2, at[2], next, mk, p)
						h3, at[3] = hit16(h3, at[3], next, mk, p)
						next = min(at[0], at[1], at[2], at[3])
					}
				}
			}
			out[t], out[t+1], out[t+2], out[t+3] = Bits(h0), Bits(h1), Bits(h2), Bits(h3)
		}
	case BFloat16:
		mk := uint16(s.Mask)
		for ; t+4 <= len(out); t += 4 {
			v0, v1, v2, v3 := v[t*stride:][:L], v[(t+1)*stride:][:L], v[(t+2)*stride:][:L], v[(t+3)*stride:][:L]
			var at [4]int
			for c := range at {
				at[c] = s.in(w + (t+c)*L)
			}
			next := min(at[0], at[1], at[2], at[3])
			h0, h1, h2, h3 := uint16(acc), uint16(acc), uint16(acc), uint16(acc)
			if next >= L {
				h0, h1, h2, h3 = bfloat4(h0, h1, h2, h3, u, v0, v1, v2, v3)
			} else {
				for k := 0; k < L; k++ {
					uk := bfloatDecode[uint16(u[k])]
					h0 = bfloatFromFloat64(math.FMA(uk, bfloatDecode[uint16(v0[k])], bfloatDecode[h0]))
					h1 = bfloatFromFloat64(math.FMA(uk, bfloatDecode[uint16(v1[k])], bfloatDecode[h1]))
					h2 = bfloatFromFloat64(math.FMA(uk, bfloatDecode[uint16(v2[k])], bfloatDecode[h2]))
					h3 = bfloatFromFloat64(math.FMA(uk, bfloatDecode[uint16(v3[k])], bfloatDecode[h3]))
					if k == next {
						h0, at[0] = hit16(h0, at[0], next, mk, p)
						h1, at[1] = hit16(h1, at[1], next, mk, p)
						h2, at[2] = hit16(h2, at[2], next, mk, p)
						h3, at[3] = hit16(h3, at[3], next, mk, p)
						next = min(at[0], at[1], at[2], at[3])
					}
				}
			}
			out[t], out[t+1], out[t+2], out[t+3] = Bits(h0), Bits(h1), Bits(h2), Bits(h3)
		}
	}
	for ; t < len(out); t++ {
		out[t] = m.dotStrike(acc, u, v[t*stride:t*stride+L], s, w+t*L)
	}
}

// accAt reads the single-precision accumulator seed for flat cell c, or
// zero when no accumulators were supplied.
func accAt(accs []Bits, cols, c int) float32 {
	if accs == nil {
		return 0
	}
	return math.Float32frombits(uint32(accs[c/cols]))
}

// GemmFMA implements BatchEnv: the whole grid under no strike.
//
//mixedrelvet:hotpath vectorized softfloat inner loop
func (m *Machine) GemmFMA(out, accs, a, bt []Bits, rows, cols, k int) {
	m.GemmStrike(out, accs, a, bt, rows, cols, k, 0, noStrike)
}

// GemmStrike computes the chains [first, rows*cols) of GemmFMA's grid
// under strike schedule s, whose window opens at chain first's first
// FMA: chain t is GemmFMA's chain t with its accumulator XORed with
// s.Mask after each scheduled FMA. Every chain is independent, so the
// grid flattens to chains that can interleave freely as long as each
// chain's own FMA sequence stays serial. For Single the operand
// matrices are decoded to binary64 once up front (float32 -> float64 is
// exact, so this is bit-neutral) — that removes the two convert-on-load
// instructions per FMA that bound a per-row dotBlock's throughput — and eight
// chains advance together. The other formats gain nothing from operand
// predecoding (Double decodes are free bit reinterpretations; the 16-bit
// formats decode via table loads either way), so they run per-row
// through dotBlock, which already interleaves.
//
//mixedrelvet:hotpath vectorized softfloat inner loop
func (m *Machine) GemmStrike(out, accs, a, bt []Bits, rows, cols, k, first int, s Strike) {
	n := rows * cols
	if first >= n {
		return
	}
	if m.f == Single && n-first >= 8 {
		r0 := first / cols
		ab, bb := getF64((rows-r0)*k), getF64(cols*k)
		da, dbt := ab.s, bb.s
		ToFloat64N(Single, da, a[r0*k:rows*k])
		ToFloat64N(Single, dbt, bt[:cols*k])
		mk, p := uint32(s.Mask), s.Period
		t := first
		for ; t+8 <= n; t += 8 {
			u0, u1, u2, u3 := da[(t/cols-r0)*k:][:k], da[((t+1)/cols-r0)*k:][:k], da[((t+2)/cols-r0)*k:][:k], da[((t+3)/cols-r0)*k:][:k]
			u4, u5, u6, u7 := da[((t+4)/cols-r0)*k:][:k], da[((t+5)/cols-r0)*k:][:k], da[((t+6)/cols-r0)*k:][:k], da[((t+7)/cols-r0)*k:][:k]
			v0, v1, v2, v3 := dbt[(t%cols)*k:][:k], dbt[((t+1)%cols)*k:][:k], dbt[((t+2)%cols)*k:][:k], dbt[((t+3)%cols)*k:][:k]
			v4, v5, v6, v7 := dbt[((t+4)%cols)*k:][:k], dbt[((t+5)%cols)*k:][:k], dbt[((t+6)%cols)*k:][:k], dbt[((t+7)%cols)*k:][:k]
			var at [8]int
			for c := range at {
				at[c] = s.in((t + c - first) * k)
			}
			next := min(at[0], at[1], at[2], at[3], at[4], at[5], at[6], at[7])
			x0, x1, x2, x3 := accAt(accs, cols, t), accAt(accs, cols, t+1), accAt(accs, cols, t+2), accAt(accs, cols, t+3)
			x4, x5, x6, x7 := accAt(accs, cols, t+4), accAt(accs, cols, t+5), accAt(accs, cols, t+6), accAt(accs, cols, t+7)
			if next >= k {
				x0, x1, x2, x3, x4, x5, x6, x7 = grid8(x0, x1, x2, x3, x4, x5, x6, x7, u0, u1, u2, u3, u4, u5, u6, u7, v0, v1, v2, v3, v4, v5, v6, v7)
			} else {
				for kk := 0; kk < k; kk++ {
					x0 = float32(math.FMA(u0[kk], v0[kk], float64(x0)))
					x1 = float32(math.FMA(u1[kk], v1[kk], float64(x1)))
					x2 = float32(math.FMA(u2[kk], v2[kk], float64(x2)))
					x3 = float32(math.FMA(u3[kk], v3[kk], float64(x3)))
					x4 = float32(math.FMA(u4[kk], v4[kk], float64(x4)))
					x5 = float32(math.FMA(u5[kk], v5[kk], float64(x5)))
					x6 = float32(math.FMA(u6[kk], v6[kk], float64(x6)))
					x7 = float32(math.FMA(u7[kk], v7[kk], float64(x7)))
					if kk == next {
						x0, at[0] = hit32(x0, at[0], next, mk, p)
						x1, at[1] = hit32(x1, at[1], next, mk, p)
						x2, at[2] = hit32(x2, at[2], next, mk, p)
						x3, at[3] = hit32(x3, at[3], next, mk, p)
						x4, at[4] = hit32(x4, at[4], next, mk, p)
						x5, at[5] = hit32(x5, at[5], next, mk, p)
						x6, at[6] = hit32(x6, at[6], next, mk, p)
						x7, at[7] = hit32(x7, at[7], next, mk, p)
						next = min(at[0], at[1], at[2], at[3], at[4], at[5], at[6], at[7])
					}
				}
			}
			out[t], out[t+1], out[t+2], out[t+3] = Bits(math.Float32bits(x0)), Bits(math.Float32bits(x1)), Bits(math.Float32bits(x2)), Bits(math.Float32bits(x3))
			out[t+4], out[t+5], out[t+6], out[t+7] = Bits(math.Float32bits(x4)), Bits(math.Float32bits(x5)), Bits(math.Float32bits(x6)), Bits(math.Float32bits(x7))
		}
		for ; t < n; t++ {
			i, j := t/cols, t%cols
			var ac Bits
			if accs != nil {
				ac = accs[i]
			}
			out[t] = m.dotStrike(ac, a[i*k:(i+1)*k], bt[j*k:(j+1)*k], s, (t-first)*k)
		}
		putF64(ab)
		putF64(bb)
		return
	}
	zero := m.FromFloat64(0)
	for i := first / cols; i < rows; i++ {
		acc := zero
		if accs != nil {
			acc = accs[i]
		}
		j := max(first-i*cols, 0)
		m.dotBlock(out[i*cols+j:(i+1)*cols], acc, a[i*k:(i+1)*k], bt[j*k:], k, s, (i*cols+j-first)*k)
	}
}

// Counting implements BatchEnv by bulk-advancing the tallies and handing
// the batch to its inner environment through the package helpers — so an
// inner machine keeps its fast path while an inner recorder or injector
// still sees every scalar operation. The resulting counts are identical
// to the decomposed loop's: one OpFMA per chain, AXPY or grid element.

// DotFMA implements BatchEnv.
func (c *Counting) DotFMA(acc Bits, a, b []Bits) Bits {
	c.Counts.ByOp[OpFMA] += uint64(len(a))
	return DotFMA(c.Inner, acc, a, b)
}

// AXPY implements BatchEnv.
func (c *Counting) AXPY(dst []Bits, s Bits, x []Bits) {
	c.Counts.ByOp[OpFMA] += uint64(len(x))
	AXPY(c.Inner, dst, s, x)
}

// GemmFMA implements BatchEnv.
func (c *Counting) GemmFMA(out, accs, a, bt []Bits, rows, cols, k int) {
	c.Counts.ByOp[OpFMA] += uint64(rows) * uint64(cols) * uint64(k)
	GemmFMA(c.Inner, out, accs, a, bt, rows, cols, k)
}

// ExpDecomp only intercepts Exp, so FMA batches pass straight
// through to the inner environment (keeping its fast path or its scalar
// instrumentation, whichever it has).

// DotFMA implements BatchEnv.
func (e *ExpDecomp) DotFMA(acc Bits, a, b []Bits) Bits { return DotFMA(e.Inner, acc, a, b) }

// AXPY implements BatchEnv.
func (e *ExpDecomp) AXPY(dst []Bits, s Bits, x []Bits) { AXPY(e.Inner, dst, s, x) }

// GemmFMA implements BatchEnv.
func (e *ExpDecomp) GemmFMA(out, accs, a, bt []Bits, rows, cols, k int) {
	GemmFMA(e.Inner, out, accs, a, bt, rows, cols, k)
}
