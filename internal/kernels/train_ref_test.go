package kernels

import (
	"fmt"
	"math"
	"testing"
)

// The scalar nests below are the original float64 training loops, kept
// as references: the patch-gathered, register-blocked loops in nn.go and
// train.go must reproduce them bit for bit, because the trained weights
// feed every table.

func refConvForward64(l *convLayer, in []float64, h, w int) []float64 {
	oh, ow := l.outShape(h, w)
	out := make([]float64, l.outC*oh*ow)
	k := l.k
	for oc := 0; oc < l.outC; oc++ {
		wBase := oc * l.inC * k * k
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				acc := l.bias[oc]
				for ic := 0; ic < l.inC; ic++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							acc += l.weight[wBase+(ic*k+ky)*k+kx] * in[(ic*h+y+ky)*w+x+kx]
						}
					}
				}
				out[(oc*oh+y)*ow+x] = acc
			}
		}
	}
	return out
}

func refDenseForward64(l *denseLayer, in []float64) []float64 {
	out := make([]float64, l.out)
	for o := 0; o < l.out; o++ {
		acc := l.bias[o]
		base := o * l.in
		for i := 0; i < l.in; i++ {
			acc += l.weight[base+i] * in[i]
		}
		out[o] = acc
	}
	return out
}

func refConvBackward(l *convLayer, in []float64, h, w int, gradOut []float64, g layerGrads, wantInputGrad bool) []float64 {
	oh, ow := l.outShape(h, w)
	k := l.k
	var gradIn []float64
	if wantInputGrad {
		gradIn = make([]float64, l.inC*h*w)
	}
	for oc := 0; oc < l.outC; oc++ {
		wBase := oc * l.inC * k * k
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				d := gradOut[(oc*oh+y)*ow+x]
				if d == 0 {
					continue
				}
				g.bias[oc] += d
				for ic := 0; ic < l.inC; ic++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							inIdx := (ic*h+y+ky)*w + x + kx
							g.weight[wBase+(ic*k+ky)*k+kx] += d * in[inIdx]
							if wantInputGrad {
								gradIn[inIdx] += d * l.weight[wBase+(ic*k+ky)*k+kx]
							}
						}
					}
				}
			}
		}
	}
	return gradIn
}

func requireSameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestConvLoopsMatchScalarReference(t *testing.T) {
	r := newTestRand(11)
	normals := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		return xs
	}
	for _, k := range []int{3, 5} {
		for _, inC := range []int{1, 2, 4} {
			// Output widths 8..11 cover every remainder mod 4.
			for ow := 8; ow < 12; ow++ {
				for _, wantInputGrad := range []bool{false, true} {
					name := fmt.Sprintf("k%d/inC%d/ow%d/inputGrad=%v", k, inC, ow, wantInputGrad)
					t.Run(name, func(t *testing.T) {
						const outC, oh = 3, 5
						h, w := oh+k-1, ow+k-1
						l := newConvLayer(inC, outC, k, r)
						copy(l.bias, normals(outC))
						in := normals(inC * h * w)

						cw := l.newWork(h, w)
						got := make([]float64, outC*oh*ow)
						l.forward64(got, in, cw)
						requireSameBits(t, "forward", got, refConvForward64(l, in, h, w))

						// Zero every third output gradient (one of them
						// negative) so the skip path runs, and start the
						// accumulators from earlier images' sums. The last
						// channel's gradient is all zero and its
						// accumulators start at -0, which only skipped
						// adds leave at -0.
						negZero := math.Copysign(0, -1)
						gradOut := normals(outC * oh * ow)
						for i := 0; i < len(gradOut); i += 3 {
							gradOut[i] = 0
						}
						gradOut[3] = negZero
						clear(gradOut[(outC-1)*oh*ow:])
						plen := inC * k * k
						prior := layerGrads{weight: normals(len(l.weight)), bias: normals(outC)}
						last := prior.weight[(outC-1)*plen:]
						for i := range last {
							last[i] = negZero
						}
						prior.bias[outC-1] = negZero
						gotG := layerGrads{weight: append([]float64(nil), prior.weight...), bias: append([]float64(nil), prior.bias...)}
						wantG := layerGrads{weight: append([]float64(nil), prior.weight...), bias: append([]float64(nil), prior.bias...)}

						var gotIn []float64
						if wantInputGrad {
							gotIn = normals(inC * h * w) // stale contents must be overwritten
						}
						convBackward(l, cw, gradOut, gotG, gotIn)
						wantIn := refConvBackward(l, in, h, w, gradOut, wantG, wantInputGrad)
						requireSameBits(t, "grad weight", gotG.weight, wantG.weight)
						requireSameBits(t, "grad bias", gotG.bias, wantG.bias)
						requireSameBits(t, "grad input", gotIn, wantIn)
					})
				}
			}
		}
	}
}

func TestDenseForwardMatchesScalarReference(t *testing.T) {
	r := newTestRand(12)
	for _, in := range []int{1, 7, 128} {
		// Output counts 1..10 cover every remainder of the four-wide
		// blocks, including MNIST's 10.
		for out := 1; out <= 10; out++ {
			l := newDenseLayer(in, out, r)
			for i := range l.bias {
				l.bias[i] = r.NormFloat64()
			}
			x := make([]float64, in)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			got := make([]float64, out)
			l.forward64(got, x)
			requireSameBits(t, fmt.Sprintf("in%d/out%d", in, out), got, refDenseForward64(l, x))
		}
	}
}
