package kernels

import (
	"fmt"
	"math"

	"mixedrel/internal/fp"
	"mixedrel/internal/rng"
)

// This file holds the neural-network layer primitives shared by the
// MNIST and YOLO-lite kernels. Each layer exists twice: once over fp.Env
// (the instrumented inference path used by the reliability experiments)
// and once over plain float64 (the fast path used only to train weights,
// matching the paper's methodology of training once in one precision and
// converting the weights to the others without retraining).

// tensor is a dense (channels, height, width) activation volume of raw
// format bits.
type tensor struct {
	c, h, w int
	data    []fp.Bits
}

func newTensor(c, h, w int) tensor {
	return tensor{c: c, h: h, w: w, data: make([]fp.Bits, c*h*w)}
}

func (t tensor) at(c, y, x int) fp.Bits     { return t.data[(c*t.h+y)*t.w+x] }
func (t tensor) set(c, y, x int, v fp.Bits) { t.data[(c*t.h+y)*t.w+x] = v }

// convLayer is a 2D convolution with valid padding and stride 1.
// Weights are laid out outC x inC x k x k; one bias per output channel.
type convLayer struct {
	inC, outC, k int
	weight       []float64
	bias         []float64
}

func newConvLayer(inC, outC, k int, r *rng.Rand) *convLayer {
	l := &convLayer{inC: inC, outC: outC, k: k,
		weight: make([]float64, outC*inC*k*k),
		bias:   make([]float64, outC),
	}
	// He-style initialization keeps activation magnitudes stable across
	// depth so the same weights are usable in binary16.
	scale := math.Sqrt(2 / float64(inC*k*k))
	for i := range l.weight {
		l.weight[i] = r.NormFloat64() * scale
	}
	return l
}

func (l *convLayer) outShape(h, w int) (int, int) { return h - l.k + 1, w - l.k + 1 }

// encodeParams converts the layer parameters into format f.
func (l *convLayer) encodeParams(f fp.Format) (w, b []fp.Bits) {
	return encode(f, l.weight), encode(f, l.bias)
}

// forward applies the convolution through env using pre-encoded params.
func (l *convLayer) forward(env fp.Env, in tensor, w, b []fp.Bits) tensor {
	oh, ow := l.outShape(in.h, in.w)
	return l.forwardInto(env, in, w, b, make([]fp.Bits, l.outC*oh*ow))
}

// forwardInto is forward writing its outC x oh x ow result into dst.
// The input is gathered im2col-style into a pooled patch matrix (pure
// data movement, no env operations), so every output pixel is one
// contiguous DotFMA chain — the identical dynamic FMA sequence, in the
// identical (oc, y, x, ic, ky, kx) order, as the original scalar nest.
func (l *convLayer) forwardInto(env fp.Env, in tensor, w, b, dst []fp.Bits) tensor {
	if in.c != l.inC {
		panic(fmt.Sprintf("kernels: conv expects %d channels, got %d", l.inC, in.c))
	}
	oh, ow := l.outShape(in.h, in.w)
	out := tensor{c: l.outC, h: oh, w: ow, data: dst[:l.outC*oh*ow]}
	k := l.k
	plen := l.inC * k * k
	buf := getBuf(oh * ow * plen)
	defer putBuf(buf)
	col := buf.s
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			p := col[(y*ow+x)*plen:]
			idx := 0
			for ic := 0; ic < l.inC; ic++ {
				for ky := 0; ky < k; ky++ {
					base := (ic*in.h+y+ky)*in.w + x
					copy(p[idx:idx+k], in.data[base:base+k])
					idx += k
				}
			}
		}
	}
	// out.data order is (oc, y, x) and the col pixel order is (y, x), so
	// the whole layer is one chain grid: rows = output channels, cols =
	// pixels, k = patch length.
	fp.GemmFMA(env, out.data, b, w, col, l.outC, oh*ow, plen)
	return out
}

// convWork is the float64 training-time working set of a convLayer on
// an h x w input: the offset off[t] of each patch element t, in
// (ic, ky, kx) order, from the patch's top-left input pixel, and the
// oh*ow patches col that forward64 gathers and convBackward reuses.
type convWork struct {
	h, w int
	off  []int
	col  []float64
}

func (l *convLayer) newWork(h, w int) *convWork {
	oh, ow := l.outShape(h, w)
	k := l.k
	cw := &convWork{h: h, w: w,
		off: make([]int, 0, l.inC*k*k),
		col: make([]float64, oh*ow*l.inC*k*k),
	}
	for ic := 0; ic < l.inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				cw.off = append(cw.off, (ic*h+ky)*w+kx)
			}
		}
	}
	return cw
}

// forward64 is the float64 training-time version of forward, writing
// the outC x oh x ow result into dst. Like forward it gathers the input
// into patches first, so every output pixel is one serial chain from
// its bias in (ic, ky, kx) order.
func (l *convLayer) forward64(dst, in []float64, cw *convWork) {
	oh, ow := l.outShape(cw.h, cw.w)
	plen := len(cw.off)
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			src := in[y*cw.w+x:]
			p := cw.col[(y*ow+x)*plen:][:plen]
			for t, o := range cw.off {
				p[t] = src[o]
			}
		}
	}
	for oc, b := range l.bias {
		row := dst[oc*oh*ow : (oc+1)*oh*ow]
		for i := range row {
			row[i] = b
		}
	}
	mulABt64(dst, l.weight, cw.col, l.outC, oh*ow, plen)
}

// isPositive reports whether b encodes a value > 0 in env's format.
func isPositive(f fp.Format, b fp.Bits) bool {
	return !f.Sign(b) && !f.IsZero(b) && !f.IsNaN(b)
}

// reluT applies max(0, x) in place.
func reluT(env fp.Env, t tensor) {
	f := env.Format()
	zero := env.FromFloat64(0)
	for i, v := range t.data {
		if !isPositive(f, v) {
			t.data[i] = zero
		}
	}
}

func relu64(xs []float64) {
	for i, v := range xs {
		if v < 0 {
			xs[i] = 0
		}
	}
}

// leakyReLUT applies x > 0 ? x : x/8 in place. The slope 1/8 is exact in
// every format (YOLO's conventional 0.1 is not representable in binary
// FP; 1/8 keeps all three precisions on the same fault-free path).
func leakyReLUT(env fp.Env, t tensor) {
	f := env.Format()
	eighth := env.FromFloat64(0.125)
	// Data-dependent: only negative elements multiply, so the op stream
	// is sparse and cannot batch without changing fault indices.
	//mixedrelvet:allow batchops conditional per-element multiply
	for i, v := range t.data {
		if !isPositive(f, v) && !f.IsZero(v) {
			t.data[i] = env.Mul(v, eighth)
		}
	}
}

// avgPool2 halves both spatial dimensions by averaging 2x2 windows.
// Odd trailing rows/columns are dropped (as in LeNet-style nets).
func avgPool2(env fp.Env, in tensor) tensor {
	oh, ow := in.h/2, in.w/2
	out := newTensor(in.c, oh, ow)
	quarter := env.FromFloat64(0.25)
	// Each window is a dependent Add/Add/Add/Mul chain; batching across
	// windows would interleave kinds and reorder the op stream.
	//mixedrelvet:allow batchops dependent per-window reduction
	for c := 0; c < in.c; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				s := env.Add(in.at(c, 2*y, 2*x), in.at(c, 2*y, 2*x+1))
				s = env.Add(s, in.at(c, 2*y+1, 2*x))
				s = env.Add(s, in.at(c, 2*y+1, 2*x+1))
				out.set(c, y, x, env.Mul(s, quarter))
			}
		}
	}
	return out
}

// avgPool2x64 is the float64 version of avgPool2, writing the
// c x h/2 x w/2 result into dst.
func avgPool2x64(dst, in []float64, c, h, w int) {
	oh, ow := h/2, w/2
	for ch := 0; ch < c; ch++ {
		for y := 0; y < oh; y++ {
			r0 := in[(ch*h+2*y)*w:][:2*ow]
			r1 := in[(ch*h+2*y+1)*w:][:2*ow]
			orow := dst[(ch*oh+y)*ow:][:ow]
			for x := range orow {
				s := r0[2*x] + r0[2*x+1] + r1[2*x] + r1[2*x+1]
				orow[x] = s * 0.25
			}
		}
	}
}

// maxPool2 halves both spatial dimensions with 2x2 max windows,
// writing the result into dst.
func maxPool2(env fp.Env, in tensor, dst []fp.Bits) {
	f := env.Format()
	oh, ow := in.h/2, in.w/2
	out := tensor{c: in.c, h: oh, w: ow, data: dst[:in.c*oh*ow]}
	for c := 0; c < in.c; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				best := in.at(c, 2*y, 2*x)
				for _, v := range []fp.Bits{in.at(c, 2*y, 2*x+1), in.at(c, 2*y+1, 2*x), in.at(c, 2*y+1, 2*x+1)} {
					if f.ToFloat64(v) > f.ToFloat64(best) {
						best = v
					}
				}
				out.set(c, y, x, best)
			}
		}
	}
}

// denseLayer is a fully connected layer, weights laid out out x in.
type denseLayer struct {
	in, out int
	weight  []float64
	bias    []float64
}

func newDenseLayer(in, out int, r *rng.Rand) *denseLayer {
	l := &denseLayer{in: in, out: out,
		weight: make([]float64, in*out),
		bias:   make([]float64, out),
	}
	scale := math.Sqrt(2 / float64(in))
	for i := range l.weight {
		l.weight[i] = r.NormFloat64() * scale
	}
	return l
}

func (l *denseLayer) encodeParams(f fp.Format) (w, b []fp.Bits) {
	return encode(f, l.weight), encode(f, l.bias)
}

func (l *denseLayer) forward(env fp.Env, in []fp.Bits, w, b []fp.Bits) []fp.Bits {
	if len(in) != l.in {
		panic(fmt.Sprintf("kernels: dense expects %d inputs, got %d", l.in, len(in)))
	}
	out := make([]fp.Bits, l.out)
	// One chain per output neuron against the shared input vector.
	fp.GemmFMA(env, out, b, w, in, l.out, 1, l.in)
	return out
}

// forward64 is the float64 training-time version of forward, writing
// the l.out outputs into dst.
func (l *denseLayer) forward64(dst, in []float64) {
	copy(dst, l.bias)
	mulABt64(dst, in, l.weight, 1, l.out, l.in)
}

// mulABt64 adds a·bᵀ into c, where a is m x k, b is n x k and c is
// m x n, all row-major: c[i][j] += a[i][0]*b[j][0] + ... +
// a[i][k-1]*b[j][k-1], one product at a time in t order, so each c[i][j]
// is the same serial chain as a scalar loop starting from c's value.
// The main loop runs four adjacent columns' chains side by side, which
// shares each load of a[i][t] and overlaps the add latencies.
func mulABt64(c, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		cr := c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k:][:len(ar)]
			b1 := b[(j+1)*k:][:len(ar)]
			b2 := b[(j+2)*k:][:len(ar)]
			b3 := b[(j+3)*k:][:len(ar)]
			s0, s1, s2, s3 := cr[j], cr[j+1], cr[j+2], cr[j+3]
			for t, av := range ar {
				s0 += av * b0[t]
				s1 += av * b1[t]
				s2 += av * b2[t]
				s3 += av * b3[t]
			}
			cr[j], cr[j+1], cr[j+2], cr[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bj := b[j*k:][:len(ar)]
			s := cr[j]
			for t, av := range ar {
				s += av * bj[t]
			}
			cr[j] = s
		}
	}
}

// softmaxT computes softmax through env with the usual max-subtraction
// for range safety (essential in binary16, where exp overflows past ~11).
func softmaxT(env fp.Env, in []fp.Bits) []fp.Bits {
	f := env.Format()
	max := in[0]
	for _, v := range in[1:] {
		if f.ToFloat64(v) > f.ToFloat64(max) {
			max = v
		}
	}
	exps := make([]fp.Bits, len(in))
	sum := env.FromFloat64(0)
	// Sub/Exp/Add interleave per element (the Exp may decompose into
	// many counted ops), so the summation order is the contract.
	//mixedrelvet:allow batchops interleaved exp and running sum
	for i, v := range in {
		exps[i] = env.Exp(env.Sub(v, max))
		sum = env.Add(sum, exps[i])
	}
	out := make([]fp.Bits, len(in))
	for i := range exps {
		out[i] = env.Div(exps[i], sum)
	}
	return out
}

// softmax64 is the float64 version of softmaxT, writing into dst.
func softmax64(dst, in []float64) {
	dst = dst[:len(in)]
	max := in[0]
	for _, v := range in[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range in {
		dst[i] = math.Exp(v - max)
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
}

func sigmoid64(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Argmax returns the index of the largest element (first on ties).
func Argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
