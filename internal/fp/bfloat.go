package fp

import "math"

// BFloat16 is the bfloat16 format: 1 sign, 8 exponent, 7 significand
// bits — the same exponent range as binary32 in half the width. The
// paper's architectures predate hardware bfloat16, but the format is the
// natural "future work" point on the precision-reliability curve the
// paper sweeps: same storage cost as binary16 with a different
// mantissa/exponent split, which changes both which bit flips are
// critical and how often faults push values to Inf/NaN. The extension
// experiments (cmd/reproduce -only ext-bf16) quantify exactly that.
const BFloat16 Format = 3

// AllFormats lists every supported format, narrowest first, including
// the bfloat16 extension. Formats remains the paper's three.
var AllFormats = []Format{Half, BFloat16, Single, Double}

// bfloatFromFloat64 rounds v to bfloat16 with round-to-nearest-even.
// bfloat16 shares binary32's exponent field, so the conversion rounds
// the binary64 significand from 52 to 7 bits and rebases the exponent,
// handling subnormals (below 2^-126) and overflow past ~3.39e38.
//
// The normal range (biased binary64 exponent in [897, 1150]) takes the
// same one-addition hot path as halfFromFloat64, rounding off 45 bits
// and rebasing the exponent by 1023-127: the rounding carry runs from
// the significand into the exponent, and out of the top binade it
// yields 0x7f80, infinity.
func bfloatFromFloat64(v float64) uint16 {
	b := math.Float64bits(v)
	if t := b &^ (1 << 63); t-897<<52 < 254<<52 {
		t += 1<<44 - 1 + t>>45&1
		return uint16(b>>48)&0x8000 | uint16(t>>45-896<<7)
	}
	return bfloatFromFloat64Slow(b)
}

// bfloatFromFloat64Slow narrows the binary64 encoding b outside the
// normal bfloat16 range: overflow, subnormals, zeros, infinities and
// NaNs.
func bfloatFromFloat64Slow(b uint64) uint16 {
	sign := uint16(b>>48) & 0x8000
	exp := int(b>>52) & 0x7ff
	mant := b & 0xfffffffffffff

	if exp == 0x7ff { // Inf or NaN
		if mant == 0 {
			return sign | 0x7f80
		}
		return sign | 0x7fc0 // canonical quiet NaN
	}
	if exp == 0 {
		// binary64 subnormals are below bfloat16's subnormal range.
		return sign
	}

	// The normal range [-126, 127] took the hot path.
	e := exp - 1023
	sig := mant | 1<<52
	switch {
	case e > 127:
		return sign | 0x7f80 // overflow to infinity
	case e >= -134:
		// Subnormal range (including the half-ulp below the smallest
		// subnormal, which can round up): value = mant7 * 2^-133.
		mant7 := rneShift(sig, 52-7+(-126-e))
		return sign | uint16(mant7)
	default:
		return sign
	}
}

// bfloatToFloat64 decodes a bfloat16 encoding exactly.
func bfloatToFloat64(h uint16) float64 {
	sign := uint64(h>>15) & 1
	exp := int(h>>7) & 0xff
	mant := uint64(h) & 0x7f

	var bits64 uint64
	switch {
	case exp == 0xff:
		if mant == 0 {
			bits64 = 0x7ff << 52
		} else {
			bits64 = 0x7ff<<52 | mant<<45 | 1<<51
		}
	case exp == 0:
		if mant == 0 {
			bits64 = 0
		} else {
			// Normalize: value is mant * 2^-133; after k shifts the
			// implicit bit sits at position 7 and the unbiased
			// exponent is -126-k.
			e := -126
			for mant&0x80 == 0 {
				mant <<= 1
				e--
			}
			mant &= 0x7f
			bits64 = uint64(e+1023)<<52 | mant<<45
		}
	default:
		bits64 = uint64(exp-127+1023)<<52 | mant<<45
	}
	return math.Float64frombits(bits64 | sign<<63)
}
