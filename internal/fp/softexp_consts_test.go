package fp_test

import (
	"math"
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/gpu"
	"mixedrel/internal/rng"
	"mixedrel/internal/xeonphi"
)

// refExp is the software exp with every constant re-encoded on each
// call: the reference ExpDecomp.Exp's cached constants must reproduce.
func refExp(d *fp.ExpDecomp, x fp.Bits) fp.Bits {
	f := d.Format()
	in := d.Inner
	xf := d.ToFloat64(x)
	switch {
	case math.IsNaN(xf):
		return f.QuietNaN()
	case math.IsInf(xf, 1):
		return f.Inf(false)
	case math.IsInf(xf, -1):
		return d.FromFloat64(0)
	}
	maxLog := math.Log(f.MaxFinite())
	if xf > maxLog+1 {
		return f.Inf(false)
	}
	if xf < -maxLog-float64(f.MantBits()) {
		return d.FromFloat64(0)
	}
	fact := func(n int) float64 {
		out := 1.0
		for i := 2; i <= n; i++ {
			out *= float64(i)
		}
		return out
	}
	k := int(math.Round(xf / math.Ln2))
	r := in.FMA(d.FromFloat64(float64(k)), d.FromFloat64(-math.Ln2), x)
	m := d.Squarings
	if m > 0 {
		r = in.Mul(r, d.FromFloat64(math.Ldexp(1, -m)))
	}
	acc := d.FromFloat64(1.0 / fact(d.Terms-1))
	for i := d.Terms - 2; i >= 0; i-- {
		acc = in.FMA(acc, r, d.FromFloat64(1.0/fact(i)))
	}
	for i := 0; i < m; i++ {
		acc = in.Mul(acc, acc)
	}
	if dec, ok := in.(fp.IntDecider); ok {
		for i := 0; i < max(d.IntSites, 1); i++ {
			k = dec.IntDecision(k)
		}
	}
	maxStep := f.Bias() - 1
	for k != 0 {
		step := min(max(k, -maxStep), maxStep)
		acc = in.Mul(acc, d.FromFloat64(math.Ldexp(1, step)))
		k -= step
	}
	return acc
}

// TestExpDecompCachedConstants holds the cached-constant Exp to the
// per-call-encoding reference for every device's exp shape: on every
// binary16 and bfloat16 input, and on 10^5 binary32/64 inputs that mix
// random bit patterns with in-range arguments.
func TestExpDecompCachedConstants(t *testing.T) {
	devices := []struct {
		name  string
		shape func(fp.Format) fp.ExpShape
	}{
		{"gpu", gpu.ExpShapeFor},
		{"xeonphi", xeonphi.ExpShapeFor},
	}
	for _, dev := range devices {
		for _, f := range []fp.Format{fp.Half, fp.BFloat16, fp.Single, fp.Double} {
			shape := dev.shape(f)
			if shape.Terms == 0 {
				continue // the device runs no software exp in f
			}
			d := fp.WrapExp(shape)(fp.NewMachine(f)).(*fp.ExpDecomp)
			check := func(x fp.Bits) {
				if got, want := d.Exp(x), refExp(d, x); got != want {
					t.Fatalf("%s %v %+v: exp(%#x) = %#x, reference %#x", dev.name, f, shape, x, got, want)
				}
			}
			if f.Width() == 16 {
				for x := 0; x < 1<<16; x++ {
					check(fp.Bits(x))
				}
				continue
			}
			r := rng.New(0xE4B + uint64(f.Width()))
			span := math.Log(f.MaxFinite()) + float64(f.MantBits()) + 2
			for i := 0; i < 100000; i++ {
				x := fp.Bits(r.Uint64())
				if f.Width() < 64 {
					x &= 1<<f.Width() - 1
				}
				if i%2 == 0 {
					x = f.FromFloat64(math.Log(f.MaxFinite()) + 2 - r.Float64()*span)
				}
				check(x)
			}
		}
	}
}

// TestExpDecompConstantsFollowShape changes an instance's shape between
// calls: the cached constants must follow it.
func TestExpDecompConstantsFollowShape(t *testing.T) {
	d := fp.NewExpDecomp(fp.NewMachine(fp.Single), 7, 1)
	x := fp.Single.FromFloat64(0.8)
	for _, shape := range []fp.ExpShape{{Terms: 7, Squarings: 1}, {Terms: 3, Squarings: 0}, {Terms: 9, Squarings: 2}} {
		d.Terms, d.Squarings = shape.Terms, shape.Squarings
		if got, want := d.Exp(x), refExp(d, x); got != want {
			t.Fatalf("%+v: exp = %#x, reference %#x", shape, got, want)
		}
	}
}
