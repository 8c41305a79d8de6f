package fp

import (
	"math"
	"testing"
)

// refHalfFromFloat64 and refBfloatFromFloat64 are the narrowings as they
// stood before the branch-free hot paths: round-up decided by comparing
// the discarded remainder with half an ulp. The class-exhaustive tests
// below prove halfFromFloat64 and bfloatFromFloat64 equal to them.
func refHalfFromFloat64(v float64) uint16 {
	b := math.Float64bits(v)
	sign := uint16(b>>48) & 0x8000
	exp := int(b>>52) & 0x7ff
	mant := b & 0xfffffffffffff

	// Hot path: magnitude in the normal binary16 range, i.e. unbiased
	// binary64 exponent in [-14, 15] (biased in [1009, 1038]). This is
	// bit-for-bit refRoundPack16(e+15, sig, 42) unrolled so the kernels'
	// per-operation re-encode costs one branch and no second call.
	if uint(exp-1009) <= 29 {
		sig := mant | 1<<52
		kept := sig >> 42
		rem := sig & (1<<42 - 1)
		const halfUlp = uint64(1) << 41
		if rem > halfUlp || (rem == halfUlp && kept&1 == 1) {
			kept++
		}
		be := uint16(exp - 1008) // e + 15
		if kept >= 1<<11 {
			kept >>= 1
			be++
			if be >= 0x1f {
				return sign | 0x7c00 // overflow to infinity
			}
		}
		return sign | be<<10 | uint16(kept&0x3ff)
	}

	if exp == 0x7ff { // Inf or NaN
		if mant == 0 {
			return sign | 0x7c00
		}
		return sign | 0x7e00 // canonical quiet NaN
	}

	// Unbiased exponent and 53-bit significand with implicit bit.
	e := exp - 1023
	sig := mant
	if exp != 0 {
		sig |= 1 << 52
	} else if mant == 0 {
		return sign // signed zero
	} else {
		// binary64 subnormals are far below the binary16 subnormal
		// range (< 2^-1022); they round to zero.
		return sign
	}

	switch {
	case e > 15:
		return sign | 0x7c00 // overflow to infinity
	case e >= -14:
		// Normal binary16 range: keep 10 explicit significand bits,
		// round the remaining 42.
		return sign | refRoundPack16(uint16(e+15), sig, 42)
	case e >= -25:
		// Subnormal range: shift the significand so the value is
		// sig * 2^-24 with the leading bit at position 10+extra.
		// Total right shift from the 52-bit alignment: 42 + (-14 - e).
		shift := uint(42 + (-14 - e))
		return sign | refRoundPack16(0, sig, shift)
	default:
		// Too small for even the smallest subnormal's rounding range,
		// except exactly half of the smallest subnormal, which rounds
		// to zero under round-to-nearest-even anyway.
		return sign
	}
}

// refRoundPack16 rounds a significand right by shift bits with
// round-to-nearest-even and assembles a binary16 from the biased exponent
// and rounded significand, propagating significand overflow into the
// exponent (including subnormal -> normal and normal -> infinity).
func refRoundPack16(biasedExp uint16, sig uint64, shift uint) uint16 {
	if shift >= 64 {
		return 0
	}
	// Round-to-nearest-even on the discarded bits: increment when the
	// remainder exceeds half an ulp, or equals it and the kept part is
	// odd (equivalent to the round/sticky formulation, one mask cheaper).
	kept := sig >> shift
	rem := sig & (1<<shift - 1)
	half := uint64(1) << (shift - 1)
	if rem > half || (rem == half && kept&1 == 1) {
		kept++
	}
	// kept holds implicit bit + 10 significand bits for normals
	// (biasedExp > 0), or a pure subnormal significand (biasedExp == 0).
	if biasedExp == 0 {
		if kept >= 1<<10 {
			// Rounded up into the normal range.
			return uint16(kept) // exponent becomes 1, mant = kept-2^10
		}
		return uint16(kept)
	}
	if kept >= 1<<11 {
		kept >>= 1
		biasedExp++
	}
	if biasedExp >= 0x1f {
		return 0x7c00 // overflow to infinity
	}
	return biasedExp<<10 | uint16(kept&0x3ff)
}

func refBfloatFromFloat64(v float64) uint16 {
	b := math.Float64bits(v)
	sign := uint16(b>>48) & 0x8000
	exp := int(b>>52) & 0x7ff
	mant := b & 0xfffffffffffff

	if exp == 0x7ff { // Inf or NaN
		if mant == 0 {
			return sign | 0x7f80
		}
		return sign | 0x7fc0 // canonical quiet NaN
	}

	e := exp - 1023
	sig := mant
	if exp != 0 {
		sig |= 1 << 52
	} else {
		// binary64 subnormals are below bfloat16's subnormal range.
		return sign
	}

	switch {
	case e > 127:
		return sign | 0x7f80 // overflow to infinity
	case e >= -126:
		// Normal range: keep 7 explicit significand bits.
		s := rneShift(sig, 52-7)
		if s >= 1<<8 {
			s >>= 1
			e++
			if e > 127 {
				return sign | 0x7f80
			}
		}
		return sign | uint16(e+127)<<7 | uint16(s&0x7f)
	case e >= -134:
		// Subnormal range (including the half-ulp below the smallest
		// subnormal, which can round up): value = mant7 * 2^-133.
		mant7 := rneShift(sig, 52-7+(-126-e))
		return sign | uint16(mant7)
	default:
		return sign
	}
}

// eachNarrowingClass calls fn with every binary64 encoding of biased
// exponent exp whose 53-bit significand (implicit bit included) has any
// value above its low shift bits, and whose low shift bits — the
// remainder a narrowing that keeps the rest discards — are 0, 1, half an
// ulp minus one, half, half plus one or all ones, under both signs; it
// returns how many it called fn with.
//
// For a rounding position of shift bits, a round-to-nearest-even result
// depends only on the sign, the exponent, the kept bits and the
// remainder's order relative to half an ulp, and round-up is monotone in
// the remainder. So two narrowings that agree on every input
// eachNarrowingClass yields at their common rounding position agree on
// every input of that exponent.
func eachNarrowingClass(exp uint64, shift uint, fn func(b uint64)) int {
	half := uint64(1) << (shift - 1)
	rems := [...]uint64{0, 1, half - 1, half, half + 1, 2*half - 1}
	n := 0
	for k := uint64(1<<52) >> shift; k <= uint64(1<<53-1)>>shift; k++ {
		for _, r := range rems {
			sig := k<<shift | r
			if sig < 1<<52 || sig >= 1<<53 {
				continue
			}
			for _, sign := range [...]uint64{0, 1 << 63} {
				fn(sign | exp<<52 | sig&(1<<52-1))
				n++
			}
		}
	}
	return n
}

// checkNarrowing proves narrow equal to ref: class-exhaustively over the
// normal range [lo, hi] of biased binary64 exponents, where both round at
// shift bits, and over the subnormal exponents below it, where the
// rounding position moves up one bit per exponent; and on every other
// exponent (zeros, binary64 subnormals, underflow, overflow, Inf and NaN)
// with the significand's edge patterns. It returns the number of
// normal-range cases.
func checkNarrowing(t *testing.T, narrow, ref func(float64) uint16, lo, hi uint64, shift uint) int {
	t.Helper()
	check := func(b uint64) {
		v := math.Float64frombits(b)
		if got, want := narrow(v), ref(v); got != want {
			t.Fatalf("%#016x (%g): %#04x, reference %#04x", b, v, got, want)
		}
	}
	normal := 0
	for exp := lo; exp <= hi; exp++ {
		normal += eachNarrowingClass(exp, shift, check)
	}
	for exp, s := lo-1, shift+1; s <= 53; exp, s = exp-1, s+1 {
		eachNarrowingClass(exp, s, check)
	}
	edges := [...]uint64{0, 1, 1<<51 - 1, 1 << 51, 1<<51 + 1, 1<<52 - 1}
	for exp := uint64(0); exp < 1<<11; exp++ {
		for _, m := range edges {
			check(exp<<52 | m)
			check(1<<63 | exp<<52 | m)
		}
	}
	return normal
}

// TestHalfNarrowingProof: halfFromFloat64 equals the reference on every
// sign x exponent x kept significand x remainder class of the normal
// binary16 range (2 x 30 x 1024 x 6 cases), hence on every input there.
func TestHalfNarrowingProof(t *testing.T) {
	if n := checkNarrowing(t, halfFromFloat64, refHalfFromFloat64, 1009, 1038, 42); n != 368640 {
		t.Fatalf("%d normal-range cases, want 368640", n)
	}
}

// TestBfloatNarrowingProof: bfloatFromFloat64 equals the reference on
// every sign x exponent x kept significand x remainder class of the
// normal bfloat16 range (2 x 254 x 128 x 6 cases), hence on every input
// there.
func TestBfloatNarrowingProof(t *testing.T) {
	if n := checkNarrowing(t, bfloatFromFloat64, refBfloatFromFloat64, 897, 1150, 45); n != 390144 {
		t.Fatalf("%d normal-range cases, want 390144", n)
	}
}
