package fp

import (
	"encoding/binary"
	"math"
	"testing"
)

// scalarOnly hides any batch methods of the wrapped Env, forcing the
// package helpers onto their scalar decomposition path. It is the
// reference the differential tests compare fast paths against.
type scalarOnly struct {
	inner Env
}

func (s scalarOnly) Format() Format             { return s.inner.Format() }
func (s scalarOnly) Add(a, b Bits) Bits         { return s.inner.Add(a, b) }
func (s scalarOnly) Sub(a, b Bits) Bits         { return s.inner.Sub(a, b) }
func (s scalarOnly) Mul(a, b Bits) Bits         { return s.inner.Mul(a, b) }
func (s scalarOnly) Div(a, b Bits) Bits         { return s.inner.Div(a, b) }
func (s scalarOnly) FMA(a, b, c Bits) Bits      { return s.inner.FMA(a, b, c) }
func (s scalarOnly) Sqrt(a Bits) Bits           { return s.inner.Sqrt(a) }
func (s scalarOnly) Exp(a Bits) Bits            { return s.inner.Exp(a) }
func (s scalarOnly) FromFloat64(v float64) Bits { return s.inner.FromFloat64(v) }
func (s scalarOnly) ToFloat64(b Bits) float64   { return s.inner.ToFloat64(b) }

// batchEdgeValues are the encodings every slice-shaped test weaves in:
// zeros of both signs, subnormals, Inf, NaN, and the format extremes.
func batchEdgeValues(f Format) []Bits {
	vals := []Bits{
		0,                // +0
		f.signMask(),     // -0
		1,                // smallest subnormal
		f.mantMask(),     // largest subnormal
		f.mantMask() + 1, // smallest normal
		f.Inf(false) - 1, // largest finite
		f.Inf(false),     // +Inf
		f.Inf(true),      // -Inf
		f.QuietNaN(),     // NaN
		f.FromFloat64(1),
		f.FromFloat64(-1.5),
		f.FromFloat64(0.333251953125),
	}
	return vals
}

// fillBits derives a deterministic operand slice of length n from raw
// fuzz bytes, mixing raw encodings with edge values.
func fillBits(f Format, raw []byte, n, salt int) []Bits {
	edges := batchEdgeValues(f)
	out := make([]Bits, n)
	for i := range out {
		var v uint64
		idx := (i + salt) * 8
		if idx+8 <= len(raw) {
			v = binary.LittleEndian.Uint64(raw[idx : idx+8])
		} else {
			v = uint64(i*2654435761 + salt*40503)
		}
		if v%5 == 0 {
			out[i] = edges[int(v/5)%len(edges)]
		} else {
			out[i] = Bits(v) & f.Mask()
		}
	}
	return out
}

// FuzzBatchScalarEquivalence proves the Machine batch fast paths are
// bit-identical to the scalar Env path for every format, every batch
// operation, and arbitrary operands (including subnormals, Inf, NaN, and
// the empty and length-1 slices the length byte can select).
func FuzzBatchScalarEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(1), uint8(1), []byte{0xff})
	f.Add(uint8(2), uint8(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(3), uint8(33), []byte{0x80, 0x7c, 0x00, 0xfc, 0x01, 0x00, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, fmtSel, lenSel uint8, raw []byte) {
		format := AllFormats[int(fmtSel)%len(AllFormats)]
		n := int(lenSel) % 48 // covers empty, 1, and multi-element slices
		m := NewMachine(format)
		ref := scalarOnly{inner: m}

		a := fillBits(format, raw, n, 0)
		b := fillBits(format, raw, n, 1)
		c := fillBits(format, raw, n, 2)
		var acc Bits
		if len(raw) > 0 {
			acc = Bits(raw[0]) & format.Mask()
		}
		s := fillBits(format, raw, 1, 3)[0]

		if got, want := DotFMA(m, acc, a, b), DotFMA(ref, acc, a, b); got != want {
			t.Fatalf("%v DotFMA: batch %#x != scalar %#x (n=%d)", format, got, want, n)
		}
		gotN := make([]Bits, n)
		wantN := make([]Bits, n)
		m.AddN(gotN, a, b)
		addN(ref, wantN, a, b)
		for i := range gotN {
			if gotN[i] != wantN[i] {
				t.Fatalf("%v AddN[%d]: batch %#x != scalar %#x", format, i, gotN[i], wantN[i])
			}
		}
		m.MulN(gotN, a, b)
		mulN(ref, wantN, a, b)
		for i := range gotN {
			if gotN[i] != wantN[i] {
				t.Fatalf("%v MulN[%d]: batch %#x != scalar %#x", format, i, gotN[i], wantN[i])
			}
		}
		m.FMAN(gotN, a, b, c)
		fmaN(ref, wantN, a, b, c)
		for i := range gotN {
			if gotN[i] != wantN[i] {
				t.Fatalf("%v FMAN[%d]: batch %#x != scalar %#x", format, i, gotN[i], wantN[i])
			}
		}
		copy(gotN, c)
		copy(wantN, c)
		AXPY(m, gotN, s, a)
		AXPY(ref, wantN, s, a)
		for i := range gotN {
			if gotN[i] != wantN[i] {
				t.Fatalf("%v AXPY[%d]: batch %#x != scalar %#x", format, i, gotN[i], wantN[i])
			}
		}

		// Grid shapes from the same bytes. The counts are not multiples
		// of the interleave widths, so the fast-path tails run.
		L := int(lenSel) % 9
		rows := int(fmtSel)%5 + 1
		cols := int(lenSel)%11 + 1
		ga := fillBits(format, raw, rows*L, 6)
		gbt := fillBits(format, raw, cols*L, 7)
		var accs []Bits
		if n%2 == 0 {
			accs = fillBits(format, raw, rows, 8)
		}
		gotG := make([]Bits, rows*cols)
		wantG := make([]Bits, rows*cols)
		GemmFMA(m, gotG, accs, ga, gbt, rows, cols, L)
		GemmFMA(ref, wantG, accs, ga, gbt, rows, cols, L)
		for i := range gotG {
			if gotG[i] != wantG[i] {
				t.Fatalf("%v GemmFMA[%d]: batch %#x != scalar %#x (rows=%d cols=%d k=%d accs=%v)",
					format, i, gotG[i], wantG[i], rows, cols, L, accs != nil)
			}
		}

		// Bulk converters against their per-element forms.
		decN := make([]float64, n)
		ToFloat64N(format, decN, a)
		for i := range a {
			w := format.ToFloat64(a[i])
			if w != decN[i] && !(math.IsNaN(w) && math.IsNaN(decN[i])) {
				t.Fatalf("%v ToFloat64N[%d]: %v != %v (bits %#x)", format, i, decN[i], w, a[i])
			}
		}
		src := make([]float64, n)
		for i, bb := range fillBits(Double, raw, n, 9) {
			src[i] = math.Float64frombits(uint64(bb))
		}
		encN := make([]Bits, n)
		FromFloat64N(format, encN, src)
		for i := range src {
			if w := format.FromFloat64(src[i]); encN[i] != w {
				t.Fatalf("%v FromFloat64N[%d]: %#x != %#x (value %v)", format, i, encN[i], w, src[i])
			}
		}
	})
}

// TestBatchScalarEquivalenceSweep is the deterministic (non-fuzz) slice
// of the same property, so plain `go test` exercises every format and
// every edge value without the fuzz engine.
func TestBatchScalarEquivalenceSweep(t *testing.T) {
	for _, format := range AllFormats {
		m := NewMachine(format)
		ref := scalarOnly{inner: m}
		edges := batchEdgeValues(format)
		// Operand slices cycling through every edge pair, lengths 0..17.
		for n := 0; n <= 17; n++ {
			a := make([]Bits, n)
			b := make([]Bits, n)
			c := make([]Bits, n)
			for i := 0; i < n; i++ {
				a[i] = edges[i%len(edges)]
				b[i] = edges[(i*5+3)%len(edges)]
				c[i] = edges[(i*7+1)%len(edges)]
			}
			for _, acc := range edges {
				if got, want := DotFMA(m, acc, a, b), DotFMA(ref, acc, a, b); got != want {
					t.Fatalf("%v DotFMA n=%d acc=%#x: batch %#x != scalar %#x", format, n, acc, got, want)
				}
			}
			got := make([]Bits, n)
			want := make([]Bits, n)
			m.AddN(got, a, b)
			addN(ref, want, a, b)
			m.MulN(append([]Bits(nil), got...), a, b) // exercise aliasing-free path
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v AddN n=%d i=%d: %#x != %#x", format, n, i, got[i], want[i])
				}
			}
			m.MulN(got, a, b)
			mulN(ref, want, a, b)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v MulN n=%d i=%d: %#x != %#x", format, n, i, got[i], want[i])
				}
			}
			m.FMAN(got, a, b, c)
			fmaN(ref, want, a, b, c)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v FMAN n=%d i=%d: %#x != %#x", format, n, i, got[i], want[i])
				}
			}
			for _, s := range edges {
				copy(got, c)
				copy(want, c)
				AXPY(m, got, s, a)
				AXPY(ref, want, s, a)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v AXPY n=%d s=%#x i=%d: %#x != %#x", format, n, s, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGemmFMAScalarEquivalence is the deterministic sweep for the grid
// batch operation: every format, chain counts straddling the interleave
// widths (8 for Single/Double, 4 for the 16-bit formats) and degenerate
// shapes (single chains, k = 0).
func TestGemmFMAScalarEquivalence(t *testing.T) {
	for _, format := range AllFormats {
		m := NewMachine(format)
		ref := scalarOnly{inner: m}
		edges := batchEdgeValues(format)
		mk := func(n, salt int) []Bits {
			out := make([]Bits, n)
			for i := range out {
				out[i] = edges[(i*3+salt)%len(edges)]
			}
			return out
		}
		for _, shape := range [][2]int{{1, 1}, {1, 9}, {3, 5}, {2, 9}, {5, 5}, {9, 1}} {
			rows, cols := shape[0], shape[1]
			for _, k := range []int{0, 1, 4, 7} {
				for _, withAccs := range []bool{false, true} {
					a := mk(rows*k, 3)
					bt := mk(cols*k, 4)
					var accs []Bits
					if withAccs {
						accs = mk(rows, 5)
					}
					got := make([]Bits, rows*cols)
					want := make([]Bits, rows*cols)
					GemmFMA(m, got, accs, a, bt, rows, cols, k)
					GemmFMA(ref, want, accs, a, bt, rows, cols, k)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v GemmFMA %dx%d k=%d accs=%v i=%d: %#x != %#x",
								format, rows, cols, k, withAccs, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestGemmStrikeMatchesScalar holds GemmStrike to the scalar definition
// of a struck grid: each chain of [first, rows*cols) folds through
// Machine.FMA, and the accumulator is XORed with the mask after every
// FMA whose window offset lies on the schedule. It covers every format,
// chain counts straddling the interleave widths, windows opening
// mid-row, periods below, at and past the chain length, and schedules
// whose first strike lies before, inside and past the window.
func TestGemmStrikeMatchesScalar(t *testing.T) {
	for _, format := range AllFormats {
		m := NewMachine(format)
		edges := batchEdgeValues(format)
		mk := func(n, salt int) []Bits {
			out := make([]Bits, n)
			for i := range out {
				out[i] = edges[(i*3+salt)%len(edges)]
			}
			return out
		}
		mask := Bits(1)<<(format.Width()-1) | 1
		for _, shape := range [][2]int{{1, 1}, {3, 5}, {2, 9}, {9, 1}, {4, 6}} {
			rows, cols := shape[0], shape[1]
			n := rows * cols
			for _, k := range []int{0, 1, 5} {
				a, bt, accs := mk(rows*k, 3), mk(cols*k, 4), mk(rows, 5)
				for _, first := range []int{0, 1, cols, n - 1, n} {
					w := (n - first) * k
					for _, period := range []int{1, 2, 4, k + 1, w + 3} {
						for _, off := range []int{0, 1, period - 1, w - 1, w} {
							if period < 1 || off < 0 {
								continue
							}
							s := Strike{First: off, Period: period, Mask: mask}
							got := make([]Bits, n)
							want := make([]Bits, n)
							m.GemmStrike(got, accs, a, bt, rows, cols, k, first, s)
							for c := first; c < n; c++ {
								i, j := c/cols, c%cols
								acc := accs[i]
								for kk := 0; kk < k; kk++ {
									acc = m.FMA(a[i*k+kk], bt[j*k+kk], acc)
									if o := (c-first)*k + kk; o >= off && (o-off)%period == 0 {
										acc = FlipMask(acc, mask)
									}
								}
								want[c] = acc
							}
							for c := range got {
								if got[c] != want[c] {
									t.Fatalf("%v GemmStrike %dx%d k=%d first=%d %+v: chain %d %#x, scalar %#x",
										format, rows, cols, k, first, s, c, got[c], want[c])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCountingBatchCountsMatchScalar checks that a Counting wrapper
// driven through the batch helpers reports OpCounts identical to the
// same operations issued scalar-by-scalar — whatever environment sits
// below it.
func TestCountingBatchCountsMatchScalar(t *testing.T) {
	for _, format := range AllFormats {
		edges := batchEdgeValues(format)
		n := 13
		a := make([]Bits, n)
		b := make([]Bits, n)
		c := make([]Bits, n)
		for i := 0; i < n; i++ {
			a[i] = edges[i%len(edges)]
			b[i] = edges[(i+4)%len(edges)]
			c[i] = edges[(i+8)%len(edges)]
		}
		run := func(env Env) {
			dst := make([]Bits, n)
			_ = DotFMA(env, 0, a, b)
			copy(dst, c)
			AXPY(env, dst, a[0], b)
			g := make([]Bits, 6)
			GemmFMA(env, g, c[:2], a[:6], b[:9], 2, 3, 3) // 2x3 chains x 3 FMAs
			_ = env.Add(a[0], b[0])                       // scalar ops: tallied identically either way
			_ = env.Sqrt(a[0])
		}

		batch := NewCounting(NewMachine(format))
		run(batch)
		scalar := NewCounting(scalarOnly{inner: NewMachine(format)})
		run(scalar)
		// One-by-one reference: hiding the Counting wrapper's own batch
		// methods forces the helpers onto full scalar decomposition, so
		// every operation is tallied individually.
		perOp := NewCounting(NewMachine(format))
		run(scalarOnly{inner: perOp})

		if batch.Counts != scalar.Counts {
			t.Fatalf("%v: batch counts %+v != scalar counts %+v", format, batch.Counts, scalar.Counts)
		}
		if batch.Counts != perOp.Counts {
			t.Fatalf("%v: batch counts %+v != per-op counts %+v", format, batch.Counts, perOp.Counts)
		}
		if got, want := batch.Counts.ByOp[OpFMA], uint64(2*n+18); got != want {
			t.Fatalf("%v: FMA count %d, want %d", format, got, want)
		}
		if got, want := batch.Counts.ByOp[OpAdd], uint64(1); got != want {
			t.Fatalf("%v: Add count %d, want %d", format, got, want)
		}
	}
}

// TestBatchHelpersFallBack checks that the helpers decompose into scalar
// Env calls — in order — when the environment has no batch methods, so
// instrumenting wrappers keep seeing every operation.
func TestBatchHelpersFallBack(t *testing.T) {
	rec := &opRecorder{inner: NewMachine(Half)}
	a := []Bits{1, 2, 3}
	b := []Bits{4, 5, 6}
	dst := make([]Bits, 3)
	_ = DotFMA(rec, 0, a, b)
	_ = rec.Add(a[0], b[0])
	AXPY(rec, dst, 7, a)
	_ = rec.Mul(a[0], b[0])
	GemmFMA(rec, dst[:2], nil, a[:1], b[:2], 1, 2, 1)
	want := []Op{OpFMA, OpFMA, OpFMA, OpAdd, OpFMA, OpFMA, OpFMA, OpMul, OpFMA, OpFMA}
	if len(rec.ops) != len(want) {
		t.Fatalf("recorded %d ops, want %d", len(rec.ops), len(want))
	}
	for i, op := range want {
		if rec.ops[i] != op {
			t.Fatalf("op %d = %v, want %v", i, rec.ops[i], op)
		}
	}
}

// TestExpDecompBatchDelegation checks that an ExpDecomp above a machine
// produces bit-identical batch results to its own scalar decomposition.
func TestExpDecompBatchDelegation(t *testing.T) {
	for _, format := range AllFormats {
		d := NewExpDecomp(NewMachine(format), 6, 2)
		ref := scalarOnly{inner: d}
		edges := batchEdgeValues(format)
		n := len(edges)
		a := make([]Bits, n)
		b := make([]Bits, n)
		for i := 0; i < n; i++ {
			a[i] = edges[i]
			b[i] = edges[(i+3)%n]
		}
		if got, want := DotFMA(d, 0, a, b), DotFMA(ref, 0, a, b); got != want {
			t.Fatalf("%v: ExpDecomp DotFMA %#x != scalar %#x", format, got, want)
		}
	}
}

// addN, mulN and fmaN are the scalar definitions of Machine.AddN, MulN
// and FMAN.
func addN(env Env, dst, a, b []Bits) {
	for i, ai := range a {
		dst[i] = env.Add(ai, b[i])
	}
}

func mulN(env Env, dst, a, b []Bits) {
	for i, ai := range a {
		dst[i] = env.Mul(ai, b[i])
	}
}

func fmaN(env Env, dst, a, b, c []Bits) {
	for i, ai := range a {
		dst[i] = env.FMA(ai, b[i], c[i])
	}
}

// opRecorder records the kind of every scalar operation it sees. It has
// no batch methods on purpose.
type opRecorder struct {
	inner Env
	ops   []Op
}

func (r *opRecorder) Format() Format     { return r.inner.Format() }
func (r *opRecorder) Add(a, b Bits) Bits { r.ops = append(r.ops, OpAdd); return r.inner.Add(a, b) }
func (r *opRecorder) Sub(a, b Bits) Bits { r.ops = append(r.ops, OpSub); return r.inner.Sub(a, b) }
func (r *opRecorder) Mul(a, b Bits) Bits { r.ops = append(r.ops, OpMul); return r.inner.Mul(a, b) }
func (r *opRecorder) Div(a, b Bits) Bits { r.ops = append(r.ops, OpDiv); return r.inner.Div(a, b) }
func (r *opRecorder) FMA(a, b, c Bits) Bits {
	r.ops = append(r.ops, OpFMA)
	return r.inner.FMA(a, b, c)
}
func (r *opRecorder) Sqrt(a Bits) Bits           { r.ops = append(r.ops, OpSqrt); return r.inner.Sqrt(a) }
func (r *opRecorder) Exp(a Bits) Bits            { r.ops = append(r.ops, OpExp); return r.inner.Exp(a) }
func (r *opRecorder) FromFloat64(v float64) Bits { return r.inner.FromFloat64(v) }
func (r *opRecorder) ToFloat64(b Bits) float64   { return r.inner.ToFloat64(b) }

// BenchmarkDotFMABatch measures the Machine fast path against the
// decomposed scalar chain for a GEMM-row-sized dot product.
func BenchmarkDotFMABatch(b *testing.B) {
	for _, format := range []Format{Half, Single, Double} {
		m := NewMachine(format)
		n := 256
		xs := make([]Bits, n)
		ys := make([]Bits, n)
		for i := range xs {
			xs[i] = format.FromFloat64(0.5 + float64(i%17)/37)
			ys[i] = format.FromFloat64(0.5 + float64(i%13)/29)
		}
		b.Run("batch/"+format.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = DotFMA(m, 0, xs, ys)
			}
		})
		b.Run("scalar/"+format.String(), func(b *testing.B) {
			ref := scalarOnly{inner: m}
			for i := 0; i < b.N; i++ {
				_ = DotFMA(ref, 0, xs, ys)
			}
		})
	}
}

// BenchmarkGemmFMA times Machine.GemmFMA on a 32x32x32 grid, the shape
// of the benchmark's fp.gemm_ns_per_mac layer rows, fault-free and under
// a Modulo 13 strike schedule; ns/op is per grid.
func BenchmarkGemmFMA(b *testing.B) {
	const dim = 32
	for _, format := range AllFormats {
		m := NewMachine(format)
		a, bt := make([]Bits, dim*dim), make([]Bits, dim*dim)
		for i := range a {
			a[i] = format.FromFloat64(float64(i%17)/37 - 0.25)
			bt[i] = format.FromFloat64(float64(i%13)/29 - 0.2)
		}
		out := make([]Bits, dim*dim)
		b.Run("clean/"+format.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.GemmFMA(out, nil, a, bt, dim, dim, dim)
			}
		})
		b.Run("mod13/"+format.String(), func(b *testing.B) {
			s := Strike{First: 5, Period: 13, Mask: 1 << 3}
			for i := 0; i < b.N; i++ {
				m.GemmStrike(out, nil, a, bt, dim, dim, dim, 0, s)
			}
		})
	}
}
