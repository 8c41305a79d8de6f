// Package fp implements bit-accurate IEEE-754 floating-point arithmetic
// for the three precisions studied in the paper — binary16 (half),
// binary32 (single), and binary64 (double) — with direct access to the
// underlying bit patterns.
//
// Values are carried as Bits, the raw encoding of the number in its
// format, so that fault injection can flip any bit of any live value and
// criticality analysis can reason about which bit positions were struck.
// Arithmetic is performed through an Env, which the injection and beam
// layers wrap to perturb individual dynamic operations.
//
// Half-precision arithmetic is implemented in software. Addition,
// multiplication and fused multiply-add of binary16 operands are computed
// exactly in binary64 (the exact product of two 11-bit significands needs
// 22 bits and the exact sum fits likewise, both far below binary64's 53
// bits) and then rounded once to binary16 — which is the correctly
// rounded result. An independent integer-only softfloat implementation in
// softref_test.go cross-checks this path in the tests, on every operand
// pair under make prove-fp16.
package fp

import (
	"fmt"
	"math"
	"strings"
)

// Format identifies one of the IEEE-754 binary interchange formats used
// by the paper's workloads.
type Format int

const (
	// Half is IEEE-754 binary16: 1 sign, 5 exponent, 10 significand bits.
	Half Format = iota
	// Single is IEEE-754 binary32: 1 sign, 8 exponent, 23 significand bits.
	Single
	// Double is IEEE-754 binary64: 1 sign, 11 exponent, 52 significand bits.
	Double
)

// Formats lists all supported formats from narrowest to widest.
var Formats = []Format{Half, Single, Double}

// Bits is the raw IEEE-754 encoding of a value in some Format, stored in
// the low-order bits of a uint64. Bits above Format.Width() are always
// zero for well-formed values.
type Bits uint64

// String returns the conventional name of the format.
func (f Format) String() string {
	switch f {
	case Half:
		return "half"
	case Single:
		return "single"
	case Double:
		return "double"
	case BFloat16:
		return "bfloat16"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// ParseFormat returns the format a command line names: its String()
// name or a common alias (fp16, binary16, bf16, fp32, float, binary32,
// fp64, binary64), in any case.
func ParseFormat(name string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "half", "fp16", "binary16":
		return Half, nil
	case "bfloat16", "bf16":
		return BFloat16, nil
	case "single", "float", "fp32", "binary32":
		return Single, nil
	case "double", "fp64", "binary64":
		return Double, nil
	}
	return 0, fmt.Errorf("unknown format %q", name)
}

// Width returns the total encoding width in bits (16, 32, or 64).
func (f Format) Width() int {
	switch f {
	case Half, BFloat16:
		return 16
	case Single:
		return 32
	case Double:
		return 64
	}
	panic("fp: unknown format")
}

// Bytes returns the storage size in bytes.
func (f Format) Bytes() int { return f.Width() / 8 }

// MantBits returns the number of explicitly stored significand bits.
func (f Format) MantBits() int {
	switch f {
	case Half:
		return 10
	case BFloat16:
		return 7
	case Single:
		return 23
	case Double:
		return 52
	}
	panic("fp: unknown format")
}

// ExpBits returns the number of exponent bits.
func (f Format) ExpBits() int {
	switch f {
	case Half:
		return 5
	case Single, BFloat16:
		return 8
	case Double:
		return 11
	}
	panic("fp: unknown format")
}

// Bias returns the exponent bias (15, 127, or 1023).
func (f Format) Bias() int { return 1<<(f.ExpBits()-1) - 1 }

// Mask returns a mask covering the format's full encoding width.
func (f Format) Mask() Bits {
	if f == Double {
		return Bits(^uint64(0))
	}
	return Bits(uint64(1)<<f.Width() - 1)
}

// signMask returns the mask of the sign bit.
func (f Format) signMask() Bits { return 1 << (f.Width() - 1) }

// expMask returns the mask of the exponent field (in place).
func (f Format) expMask() Bits {
	return Bits((uint64(1)<<f.ExpBits())-1) << f.MantBits()
}

// mantMask returns the mask of the significand field.
func (f Format) mantMask() Bits { return Bits(uint64(1)<<f.MantBits() - 1) }

// Sign reports whether the sign bit of b is set.
func (f Format) Sign(b Bits) bool { return b&f.signMask() != 0 }

// Exponent returns the raw (biased) exponent field of b.
func (f Format) Exponent(b Bits) int {
	return int((b & f.expMask()) >> f.MantBits())
}

// Mantissa returns the raw significand field of b.
func (f Format) Mantissa(b Bits) Bits { return b & f.mantMask() }

// IsNaN reports whether b encodes a NaN in format f.
func (f Format) IsNaN(b Bits) bool {
	return f.Exponent(b) == int(f.expMask()>>f.MantBits()) && f.Mantissa(b) != 0
}

// IsInf reports whether b encodes an infinity in format f.
func (f Format) IsInf(b Bits) bool {
	return f.Exponent(b) == int(f.expMask()>>f.MantBits()) && f.Mantissa(b) == 0
}

// AnyNonFinite reports whether any of bs encodes a NaN or an infinity
// in format f: one mask compare per value, for scanning whole traces.
func (f Format) AnyNonFinite(bs []Bits) bool {
	m := f.expMask()
	for _, b := range bs {
		if b&m == m {
			return true
		}
	}
	return false
}

// IsZero reports whether b encodes positive or negative zero.
func (f Format) IsZero(b Bits) bool { return b&^f.signMask() == 0 }

// FlipBit returns b with bit i toggled. It panics if i is outside the
// format's width. This is the primitive used by every fault model.
func (f Format) FlipBit(b Bits, i int) Bits {
	if i < 0 || i >= f.Width() {
		panic(fmt.Sprintf("fp: FlipBit index %d out of range for %v", i, f))
	}
	return b ^ (1 << uint(i))
}

// FlipMask returns b with every bit set in mask toggled: the one-XOR form
// of a precomputed multi-bit upset (a mask of one bit is FlipBit). Like
// FlipBit it works on the raw bit pattern; mask must lie within the
// format's width.
func FlipMask(b, mask Bits) Bits { return b ^ mask }

// Majority returns the bitwise majority vote of three encodings: each
// output bit is set iff it is set in at least two of a, b, c. This is
// the TMR voter primitive; like FlipBit it deliberately works on the raw
// bit pattern, which is why it lives here rather than with the numeric
// Env operations.
func Majority(a, b, c Bits) Bits {
	return a&b | a&c | b&c
}

// FromFloat64 rounds v to format f (round-to-nearest-even) and returns
// its encoding. Overflow produces the correctly signed infinity; NaN maps
// to the format's canonical quiet NaN.
func (f Format) FromFloat64(v float64) Bits {
	switch f {
	case Half:
		return Bits(halfFromFloat64(v))
	case BFloat16:
		return Bits(bfloatFromFloat64(v))
	case Single:
		return Bits(math.Float32bits(float32(v)))
	case Double:
		return Bits(math.Float64bits(v))
	}
	panic("fp: unknown format")
}

// ToFloat64 decodes b (an encoding in format f) to float64. The
// conversion is exact: every binary16 and binary32 value is representable
// in binary64.
func (f Format) ToFloat64(b Bits) float64 {
	switch f {
	case Half:
		return halfDecode[uint16(b)]
	case BFloat16:
		return bfloatDecode[uint16(b)]
	case Single:
		return float64(math.Float32frombits(uint32(b)))
	case Double:
		return math.Float64frombits(uint64(b))
	}
	panic("fp: unknown format")
}

// QuietNaN returns the canonical quiet NaN of format f.
func (f Format) QuietNaN() Bits {
	return f.expMask() | 1<<(f.MantBits()-1)
}

// Inf returns the encoding of +Inf (sign=false) or -Inf (sign=true).
func (f Format) Inf(negative bool) Bits {
	b := f.expMask()
	if negative {
		b |= f.signMask()
	}
	return b
}

// MaxFinite returns the largest finite value representable in f.
func (f Format) MaxFinite() float64 {
	switch f {
	case Half:
		return 65504
	case BFloat16:
		return 0x1.FEp127 // 255/128 * 2^127 ~= 3.39e38
	case Single:
		return math.MaxFloat32
	case Double:
		return math.MaxFloat64
	}
	panic("fp: unknown format")
}

// MachineEpsilon returns the distance from 1.0 to the next larger
// representable value, 2^-MantBits.
func (f Format) MachineEpsilon() float64 {
	return math.Ldexp(1, -f.MantBits())
}
