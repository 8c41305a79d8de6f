package fp

import "testing"

// pairCheck holds one (operation, format) pair of the 16-bit formats to
// the integer-only references of softref_test.go: the Machine's scalar
// operation, and its batch kernel where it has one, must return the
// reference's encoding on every operand pair checked, any NaN matching
// any NaN. make prove-fp16 runs every check over all 2^32 pairs
// (prove16_full_test.go); TestFP16PairSlice runs a fixed slice of them.
type pairCheck struct {
	name  string
	f     Format
	op    func(m *Machine, a, b Bits) Bits
	batch func(m *Machine, dst, a, b []Bits) // nil: no batch kernel
	ref   func(a, b uint16) uint16
	isNaN func(h uint16) bool
}

var pairChecks = []pairCheck{
	{"add/half", Half, (*Machine).Add, (*Machine).AddN, softAdd16, isNaN16},
	{"sub/half", Half, (*Machine).Sub, nil, func(a, b uint16) uint16 { return softAdd16(a, b^0x8000) }, isNaN16},
	{"mul/half", Half, (*Machine).Mul, (*Machine).MulN, softMul16, isNaN16},
	{"add/bfloat16", BFloat16, (*Machine).Add, (*Machine).AddN, softAddBF, isNaNBF},
	{"sub/bfloat16", BFloat16, (*Machine).Sub, nil, func(a, b uint16) uint16 { return softAddBF(a, b^0x8000) }, isNaNBF},
	{"mul/bfloat16", BFloat16, (*Machine).Mul, (*Machine).MulN, softMulBF, isNaNBF},
}

// pairChunk is how many operand pairs run checks at a time.
const pairChunk = 1 << 12

// run checks n operand pairs p = first, first+stride, ... (mod 2^32),
// where pair p has operands a = p>>16 and b = p&0xffff; batch also puts
// each chunk of them through the batch kernel.
func (c pairCheck) run(t *testing.T, first, stride uint32, n uint64, batch bool) {
	t.Helper()
	m := NewMachine(c.f)
	var a, b, dst [pairChunk]Bits
	p := first
	for done := uint64(0); done < n; done += pairChunk {
		k := min(n-done, pairChunk)
		for i := range k {
			a[i], b[i] = Bits(p>>16), Bits(p&0xffff)
			p += stride
		}
		for i := range k {
			c.expect(t, "scalar", a[i], b[i], c.op(m, a[i], b[i]))
		}
		if batch && c.batch != nil {
			c.batch(m, dst[:k], a[:k], b[:k])
			for i := range k {
				c.expect(t, "batch", a[i], b[i], dst[i])
			}
		}
	}
}

// expect fails the test unless got is the reference's result on (a, b).
func (c pairCheck) expect(t *testing.T, path string, a, b, got Bits) {
	want := c.ref(uint16(a), uint16(b))
	if g := uint16(got); g != want && !(c.isNaN(g) && c.isNaN(want)) {
		t.Helper()
		t.Fatalf("%s %s(%#04x, %#04x) = %#04x, reference %#04x", c.name, path, uint16(a), uint16(b), g, want)
	}
}

// TestFP16PairSlice runs every pair check, scalar and batch, on a fixed
// 2^20-pair slice: an odd stride spreads it over every first operand
// with sixteen second operands each.
func TestFP16PairSlice(t *testing.T) {
	for _, c := range pairChecks {
		c.run(t, 0x9e37, 4097, 1<<20, true)
	}
}
