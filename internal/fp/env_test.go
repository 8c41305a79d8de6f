package fp

import (
	"math"
	"testing"
	"testing/quick"

	"mixedrel/internal/rng"
)

func TestMachineBasicArithmetic(t *testing.T) {
	for _, f := range Formats {
		m := NewMachine(f)
		two, three := m.FromFloat64(2), m.FromFloat64(3)
		if got := m.ToFloat64(m.Add(two, three)); got != 5 {
			t.Errorf("%v: 2+3 = %v", f, got)
		}
		if got := m.ToFloat64(m.Sub(two, three)); got != -1 {
			t.Errorf("%v: 2-3 = %v", f, got)
		}
		if got := m.ToFloat64(m.Mul(two, three)); got != 6 {
			t.Errorf("%v: 2*3 = %v", f, got)
		}
		if got := m.ToFloat64(m.Div(three, two)); got != 1.5 {
			t.Errorf("%v: 3/2 = %v", f, got)
		}
		if got := m.ToFloat64(m.FMA(two, three, three)); got != 9 {
			t.Errorf("%v: 2*3+3 = %v", f, got)
		}
		if got := m.ToFloat64(m.Sqrt(m.FromFloat64(9))); got != 3 {
			t.Errorf("%v: sqrt(9) = %v", f, got)
		}
		if got := m.ToFloat64(m.Exp(m.FromFloat64(0))); got != 1 {
			t.Errorf("%v: exp(0) = %v", f, got)
		}
	}
}

func TestMachineFormat(t *testing.T) {
	for _, f := range Formats {
		if NewMachine(f).Format() != f {
			t.Errorf("machine format mismatch for %v", f)
		}
	}
}

// Results must always be valid encodings of the machine's format (no
// stray high bits).
func TestMachineResultsStayInFormat(t *testing.T) {
	r := rng.New(99)
	for _, f := range Formats {
		m := NewMachine(f)
		mask := f.Mask()
		for i := 0; i < 2000; i++ {
			a := Bits(r.Uint64()) & mask
			b := Bits(r.Uint64()) & mask
			c := Bits(r.Uint64()) & mask
			for _, res := range []Bits{m.Add(a, b), m.Sub(a, b), m.Mul(a, b), m.Div(a, b), m.FMA(a, b, c), m.Sqrt(a), m.Exp(a)} {
				if res&^mask != 0 {
					t.Fatalf("%v: result %#x has bits outside the format", f, res)
				}
			}
		}
	}
}

// Half-precision results of the via-float64 path must be exactly
// representable (converting to float64 and back is identity).
func TestHalfResultsRepresentable(t *testing.T) {
	m := NewMachine(Half)
	r := rng.New(7)
	for i := 0; i < 5000; i++ {
		a := Bits(r.Uint64()) & Half.Mask()
		b := Bits(r.Uint64()) & Half.Mask()
		res := m.Mul(a, b)
		if Half.IsNaN(res) {
			continue
		}
		if back := Half.FromFloat64(Half.ToFloat64(res)); back != res {
			t.Fatalf("mul(%#x,%#x) = %#x not representable", a, b, res)
		}
	}
}

func TestArithmeticProperties(t *testing.T) {
	for _, f := range Formats {
		m := NewMachine(f)
		mask := uint64(f.Mask())
		finite := func(raw uint64) Bits {
			b := Bits(raw) & Bits(mask)
			if f.IsNaN(b) || f.IsInf(b) {
				return f.FromFloat64(1.5)
			}
			return b
		}
		commAdd := func(x, y uint64) bool {
			a, b := finite(x), finite(y)
			return m.Add(a, b) == m.Add(b, a)
		}
		commMul := func(x, y uint64) bool {
			a, b := finite(x), finite(y)
			return m.Mul(a, b) == m.Mul(b, a)
		}
		addZero := func(x uint64) bool {
			a := finite(x)
			return m.Add(a, m.FromFloat64(0)) == a || f.IsZero(a)
		}
		mulOne := func(x uint64) bool {
			a := finite(x)
			return m.Mul(a, m.FromFloat64(1)) == a
		}
		for name, prop := range map[string]interface{}{
			"add commutes": commAdd, "mul commutes": commMul,
			"x+0 == x": addZero, "x*1 == x": mulOne,
		} {
			if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
				t.Errorf("%v: property %q failed: %v", f, name, err)
			}
		}
	}
}

func TestSingleMatchesNativeFloat32(t *testing.T) {
	m := NewMachine(Single)
	r := rng.New(123)
	for i := 0; i < 5000; i++ {
		a32 := math.Float32frombits(uint32(r.Uint64()))
		b32 := math.Float32frombits(uint32(r.Uint64()))
		if a32 != a32 || b32 != b32 { // skip NaN
			continue
		}
		a := Bits(math.Float32bits(a32))
		b := Bits(math.Float32bits(b32))
		if got, want := m.Add(a, b), Bits(math.Float32bits(a32+b32)); got != want && !Single.IsNaN(got) {
			t.Fatalf("add mismatch: %v + %v", a32, b32)
		}
		if got, want := m.Mul(a, b), Bits(math.Float32bits(a32*b32)); got != want && !Single.IsNaN(got) {
			t.Fatalf("mul mismatch: %v * %v", a32, b32)
		}
	}
}

func TestCountingEnv(t *testing.T) {
	m := NewCounting(NewMachine(Double))
	a, b := m.FromFloat64(1), m.FromFloat64(2)
	m.Add(a, b)
	m.Add(a, b)
	m.Sub(a, b)
	m.Mul(a, b)
	m.Div(a, b)
	m.FMA(a, b, a)
	m.Sqrt(a)
	m.Exp(a)
	want := OpCounts{}
	want.ByOp[OpAdd] = 2
	want.ByOp[OpSub] = 1
	want.ByOp[OpMul] = 1
	want.ByOp[OpDiv] = 1
	want.ByOp[OpFMA] = 1
	want.ByOp[OpSqrt] = 1
	want.ByOp[OpExp] = 1
	if m.Counts != want {
		t.Errorf("counts = %+v, want %+v", m.Counts, want)
	}
	if m.Counts.Total() != 8 {
		t.Errorf("Total = %d, want 8", m.Counts.Total())
	}
}

func TestOpCountsAdd(t *testing.T) {
	var a, b OpCounts
	a.ByOp[OpAdd] = 3
	a.Loads = 2
	b.ByOp[OpAdd] = 4
	b.ByOp[OpMul] = 1
	b.Stores = 5
	a.Add(b)
	if a.ByOp[OpAdd] != 7 || a.ByOp[OpMul] != 1 || a.Loads != 2 || a.Stores != 5 {
		t.Errorf("accumulated counts wrong: %+v", a)
	}
}

func TestOpStrings(t *testing.T) {
	names := map[Op]string{OpAdd: "ADD", OpSub: "SUB", OpMul: "MUL",
		OpDiv: "DIV", OpFMA: "FMA", OpSqrt: "SQRT", OpExp: "EXP"}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
	if Op(77).String() != "OP?" {
		t.Error("unknown op should stringify to OP?")
	}
}

// Lower precision must lose accuracy monotonically on an ill-conditioned
// reduction: the half result of a long sum is no closer to the exact value
// than the double result.
func TestPrecisionOrdering(t *testing.T) {
	exact := 0.0
	for i := 1; i <= 200; i++ {
		exact += 1.0 / float64(i)
	}
	errFor := func(f Format) float64 {
		m := NewMachine(f)
		acc := m.FromFloat64(0)
		for i := 1; i <= 200; i++ {
			acc = m.Add(acc, m.FromFloat64(1.0/float64(i)))
		}
		return math.Abs(m.ToFloat64(acc) - exact)
	}
	h, s, d := errFor(Half), errFor(Single), errFor(Double)
	if !(h > s && s > d) {
		t.Errorf("harmonic-sum errors not ordered: half=%g single=%g double=%g", h, s, d)
	}
}
