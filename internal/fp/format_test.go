package fp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatFieldWidths(t *testing.T) {
	cases := []struct {
		f                          Format
		width, mant, exp, bias, sz int
	}{
		{Half, 16, 10, 5, 15, 2},
		{Single, 32, 23, 8, 127, 4},
		{Double, 64, 52, 11, 1023, 8},
	}
	for _, c := range cases {
		if c.f.Width() != c.width || c.f.MantBits() != c.mant ||
			c.f.ExpBits() != c.exp || c.f.Bias() != c.bias || c.f.Bytes() != c.sz {
			t.Errorf("%v: got width=%d mant=%d exp=%d bias=%d bytes=%d",
				c.f, c.f.Width(), c.f.MantBits(), c.f.ExpBits(), c.f.Bias(), c.f.Bytes())
		}
		if 1+c.f.MantBits()+c.f.ExpBits() != c.f.Width() {
			t.Errorf("%v: fields do not sum to width", c.f)
		}
	}
}

func TestFormatStrings(t *testing.T) {
	if Half.String() != "half" || Single.String() != "single" || Double.String() != "double" {
		t.Errorf("unexpected names: %v %v %v", Half, Single, Double)
	}
	if Format(99).String() == "" {
		t.Error("unknown format should still stringify")
	}
}

// TestParseFormat: every format parses back from its String() name in
// any case, every alias names its format, and anything else is an error.
func TestParseFormat(t *testing.T) {
	names := map[string]Format{"fp16": Half, "binary16": Half, "bf16": BFloat16, "fp32": Single,
		"float": Single, "binary32": Single, "fp64": Double, "binary64": Double}
	for _, f := range AllFormats {
		names[f.String()], names[strings.ToUpper(f.String())] = f, f
	}
	for name, want := range names {
		if got, err := ParseFormat(name); err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "fp8", "Format(99)"} {
		if _, err := ParseFormat(bad); err == nil {
			t.Errorf("ParseFormat(%q) accepted", bad)
		}
	}
}

func TestClassifiers(t *testing.T) {
	for _, f := range Formats {
		one := f.FromFloat64(1)
		if f.IsNaN(one) || f.IsInf(one) || f.IsZero(one) {
			t.Errorf("%v: 1.0 misclassified", f)
		}
		if !f.IsNaN(f.QuietNaN()) {
			t.Errorf("%v: QuietNaN not NaN", f)
		}
		if !f.IsInf(f.Inf(false)) || !f.IsInf(f.Inf(true)) {
			t.Errorf("%v: Inf not Inf", f)
		}
		if f.Sign(f.Inf(false)) || !f.Sign(f.Inf(true)) {
			t.Errorf("%v: Inf sign wrong", f)
		}
		if !f.IsZero(f.FromFloat64(0)) {
			t.Errorf("%v: 0 not zero", f)
		}
		negZero := f.FromFloat64(math.Copysign(0, -1))
		if !f.IsZero(negZero) || !f.Sign(negZero) {
			t.Errorf("%v: -0 misclassified", f)
		}
		sub := f.FromFloat64(math.Ldexp(1, -f.Bias()-1))
		if f.Exponent(sub) != 0 || f.Mantissa(sub) == 0 {
			t.Errorf("%v: expected subnormal, got %#x", f, sub)
		}
	}
}

func TestMaxFinite(t *testing.T) {
	for _, f := range Formats {
		m := f.MaxFinite()
		if b := f.FromFloat64(m); f.IsInf(b) {
			t.Errorf("%v: MaxFinite overflows its own format", f)
		}
		if b := f.FromFloat64(m * 2); !f.IsInf(b) {
			t.Errorf("%v: 2*MaxFinite should be Inf", f)
		}
	}
}

func TestMachineEpsilon(t *testing.T) {
	for _, f := range Formats {
		eps := f.MachineEpsilon()
		one := f.FromFloat64(1)
		next := f.FromFloat64(1 + eps)
		if next == one {
			t.Errorf("%v: 1+eps not distinguishable from 1", f)
		}
		if d := ULPDistance(f, one, next); d != 1 {
			t.Errorf("%v: 1 and 1+eps are %d ulps apart, want 1", f, d)
		}
	}
}

func TestFlipBit(t *testing.T) {
	for _, f := range Formats {
		b := f.FromFloat64(1)
		for i := 0; i < f.Width(); i++ {
			flipped := f.FlipBit(b, i)
			if flipped == b {
				t.Errorf("%v: FlipBit(%d) is identity", f, i)
			}
			if f.FlipBit(flipped, i) != b {
				t.Errorf("%v: FlipBit(%d) is not an involution", f, i)
			}
		}
		// Flipping the sign bit exactly negates.
		neg := f.FlipBit(b, f.Width()-1)
		if f.ToFloat64(neg) != -1 {
			t.Errorf("%v: sign-bit flip of 1.0 = %v", f, f.ToFloat64(neg))
		}
	}
}

func TestFlipBitPanicsOutOfRange(t *testing.T) {
	for _, i := range []int{-1, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FlipBit(%d) on half did not panic", i)
				}
			}()
			Half.FlipBit(0, i)
		}()
	}
}

func TestConversionExactness(t *testing.T) {
	// Every half and single value converts to float64 and back exactly.
	vals := []float64{0, 1, -1, 0.5, 2, 1024, 0.0009765625, 3.140625}
	for _, f := range Formats {
		for _, v := range vals {
			b := f.FromFloat64(v)
			if got := f.FromFloat64(f.ToFloat64(b)); got != b {
				t.Errorf("%v: %v does not round trip (%#x vs %#x)", f, v, got, b)
			}
		}
	}
}

func TestULPDistance(t *testing.T) {
	for _, f := range Formats {
		one := f.FromFloat64(1)
		if d := ULPDistance(f, one, one); d != 0 {
			t.Errorf("%v: ULP(1,1) = %d", f, d)
		}
		// Across zero: +min_subnormal and -min_subnormal are 2 apart.
		pos, neg := Bits(1), f.signMask()|1
		if d := ULPDistance(f, pos, neg); d != 2 {
			t.Errorf("%v: ULP across zero = %d, want 2", f, d)
		}
		if d := ULPDistance(f, f.QuietNaN(), one); d != math.MaxUint64 {
			t.Errorf("%v: ULP with NaN = %d", f, d)
		}
	}
}

func TestULPDistanceSymmetric(t *testing.T) {
	f := func(a, b uint16) bool {
		return ULPDistance(Half, Bits(a), Bits(b)) == ULPDistance(Half, Bits(b), Bits(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelErr(t *testing.T) {
	cases := []struct {
		want, got, rel float64
	}{
		{100, 100, 0},
		{100, 110, 0.1},
		{100, 90, 0.1},
		{-100, -90, 0.1},
		{0, 0, 0},
	}
	for _, c := range cases {
		if r := RelErr(c.want, c.got); math.Abs(r-c.rel) > 1e-12 {
			t.Errorf("RelErr(%v,%v) = %v, want %v", c.want, c.got, r, c.rel)
		}
	}
	if !math.IsInf(RelErr(0, 1), 1) {
		t.Error("RelErr(0,1) should be +Inf")
	}
	if !math.IsInf(RelErr(1, math.NaN()), 1) {
		t.Error("RelErr(1,NaN) should be +Inf")
	}
	if !math.IsInf(RelErr(1, math.Inf(1)), 1) {
		t.Error("RelErr(1,Inf) should be +Inf")
	}
	if RelErr(math.Inf(1), math.Inf(1)) != 0 {
		t.Error("RelErr(Inf,Inf) should be 0")
	}
}

func TestMaxRelErr(t *testing.T) {
	want := []float64{1, 2, 4}
	got := []float64{1, 2.2, 4}
	if r := MaxRelErr(want, got); math.Abs(r-0.1) > 1e-12 {
		t.Errorf("MaxRelErr = %v, want 0.1", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("MaxRelErr length mismatch did not panic")
		}
	}()
	MaxRelErr([]float64{1}, []float64{1, 2})
}
