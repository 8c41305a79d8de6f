package fp

import "math"

// halfToFloat64 decodes an IEEE-754 binary16 encoding to float64. The
// conversion is exact.
func halfToFloat64(h uint16) float64 {
	sign := uint64(h>>15) & 1
	exp := int(h>>10) & 0x1f
	mant := uint64(h) & 0x3ff

	var bits64 uint64
	switch {
	case exp == 0x1f: // Inf or NaN
		if mant == 0 {
			bits64 = 0x7ff << 52
		} else {
			// Preserve the payload in the top of the binary64
			// significand and force the quiet bit.
			bits64 = 0x7ff<<52 | mant<<42 | 1<<51
		}
	case exp == 0: // zero or subnormal
		if mant == 0 {
			bits64 = 0
		} else {
			// Normalize: value is mant * 2^-24. After k left shifts
			// the implicit bit sits at position 10 and the unbiased
			// exponent is -14-k.
			e := -14
			for mant&0x400 == 0 {
				mant <<= 1
				e--
			}
			mant &= 0x3ff // drop the implicit bit
			bits64 = uint64(e+1023)<<52 | mant<<42
		}
	default: // normal
		bits64 = uint64(exp-15+1023)<<52 | mant<<42
	}
	return math.Float64frombits(bits64 | sign<<63)
}

// halfFromFloat64 rounds v to binary16 with round-to-nearest-even,
// handling subnormals, overflow to infinity, and NaN canonicalization.
//
// Hot path: magnitude in the normal binary16 range, i.e. biased binary64
// exponent in [1009, 1038] (unbiased [-14, 15]). The exponent field sits
// directly above the significand field, so the magnitude's encoding t is
// one integer in which a carry out of the significand moves into the
// exponent by itself. Rounding is then one addition: half a binary16 ulp
// minus one, plus the lowest kept bit, added to t carries into the kept
// bits exactly when the 42 discarded bits exceed half an ulp, or equal it
// with the kept part odd (ties to even). Shifting the discarded bits off
// and rebasing the exponent by 1023-15 gives the binary16 encoding,
// including a round-up that carries into the next binade; from the top
// binade that lands on exponent 31 with a zero significand, 0x7c00,
// infinity. Only the range check branches; everything else is in
// halfFromFloat64Slow.
func halfFromFloat64(v float64) uint16 {
	b := math.Float64bits(v)
	if t := b &^ (1 << 63); t-1009<<52 < 30<<52 {
		t += 1<<41 - 1 + t>>42&1
		return uint16(b>>48)&0x8000 | uint16(t>>42-1008<<10)
	}
	return halfFromFloat64Slow(b)
}

// halfFromFloat64Slow narrows the binary64 encoding b outside the normal
// binary16 range: overflow, subnormals, zeros, infinities and NaNs.
func halfFromFloat64Slow(b uint64) uint16 {
	sign := uint16(b>>48) & 0x8000
	exp := int(b>>52) & 0x7ff
	mant := b & 0xfffffffffffff

	if exp == 0x7ff { // Inf or NaN
		if mant == 0 {
			return sign | 0x7c00
		}
		return sign | 0x7e00 // canonical quiet NaN
	}
	if exp == 0 {
		// Signed zero; binary64 subnormals are far below the binary16
		// subnormal range (< 2^-1022) and round to zero too.
		return sign
	}

	// Unbiased exponent and 53-bit significand with implicit bit. The
	// normal range [-14, 15] took the hot path.
	e := exp - 1023
	sig := mant | 1<<52
	switch {
	case e > 15:
		return sign | 0x7c00 // overflow to infinity
	case e >= -25:
		// Subnormal range: shift the significand so the value is
		// sig * 2^-24 with the leading bit at position 10+extra.
		// Total right shift from the 52-bit alignment: 42 + (-14 - e).
		// A round-up to 2^10 is exactly the smallest normal's encoding.
		return sign | uint16(rneShift(sig, 42+(-14-e)))
	default:
		// Too small for even the smallest subnormal's rounding range,
		// except exactly half of the smallest subnormal, which rounds
		// to zero under round-to-nearest-even anyway.
		return sign
	}
}
