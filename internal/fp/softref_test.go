package fp

import "math/bits"

// Integer-only binary16 and bfloat16 addition and multiplication. They
// are the independent references the via-binary64 Machine path is
// checked against (soft16_test.go, bfloat_test.go, prove16_test.go):
// the two implementations share no code beyond rneShift and dec16, so
// their agreement validates both the conversion code and the rounding
// argument in the package comment.

func decode16(h uint16) dec16 {
	d := dec16{neg: h&0x8000 != 0}
	e := int(h>>10) & 0x1f
	m := uint64(h) & 0x3ff
	if e == 0 {
		d.sig = m
		d.exp = -24
		return d
	}
	d.sig = m | 1<<10
	d.exp = e - 15 - 10
	return d
}

// encode16 rounds the exact value ±sig*2^exp to binary16 with
// round-to-nearest-even. sig may be any uint64.
func encode16(neg bool, sig uint64, exp int) uint16 {
	var sign uint16
	if neg {
		sign = 0x8000
	}
	if sig == 0 {
		return sign
	}
	p := bits.Len64(sig) - 1 // position of the leading bit
	e := p + exp             // unbiased exponent of the value

	if e > 15 {
		return sign | 0x7c00
	}
	if e >= -14 {
		// Normal: place the leading bit at position 10, round the rest.
		s := rneShift(sig, p-10)
		if s >= 1<<11 {
			// Rounding carried past the leading bit.
			s >>= 1
			e++
			if e > 15 {
				return sign | 0x7c00
			}
		}
		return sign | uint16(e+15)<<10 | uint16(s&0x3ff)
	}
	// Subnormal: mant = round(sig * 2^(exp+24)). When mant rounds up to
	// 2^10 the encoding sign|mant is exactly the smallest normal.
	mant := rneShift(sig, -(exp + 24))
	return sign | uint16(mant)
}

// softAdd16 returns a+b in binary16 using integer-only arithmetic.
func softAdd16(a, b uint16) uint16 {
	// Specials.
	an, bn := isNaN16(a), isNaN16(b)
	if an || bn {
		return 0x7e00
	}
	ai, bi := isInf16(a), isInf16(b)
	switch {
	case ai && bi:
		if a == b {
			return a
		}
		return 0x7e00 // Inf + -Inf
	case ai:
		return a
	case bi:
		return b
	}

	da, db := decode16(a), decode16(b)
	if da.sig == 0 && db.sig == 0 {
		// Signed-zero rules for addition: -0 + -0 = -0, else +0.
		if da.neg && db.neg {
			return 0x8000
		}
		return 0
	}

	e := da.exp
	if db.exp < e {
		e = db.exp
	}
	// Exponents lie in [-24, 5]; max shift 29 with an 11-bit significand
	// stays far inside uint64.
	va := int64(da.sig << uint(da.exp-e))
	vb := int64(db.sig << uint(db.exp-e))
	if da.neg {
		va = -va
	}
	if db.neg {
		vb = -vb
	}
	sum := va + vb
	if sum == 0 {
		// Exact cancellation yields +0 under round-to-nearest.
		return 0
	}
	neg := sum < 0
	if neg {
		sum = -sum
	}
	return encode16(neg, uint64(sum), e)
}

// softMul16 returns a*b in binary16 using integer-only arithmetic.
func softMul16(a, b uint16) uint16 {
	an, bn := isNaN16(a), isNaN16(b)
	if an || bn {
		return 0x7e00
	}
	neg := (a^b)&0x8000 != 0
	ai, bi := isInf16(a), isInf16(b)
	az, bz := a&0x7fff == 0, b&0x7fff == 0
	if ai || bi {
		if az || bz {
			return 0x7e00 // Inf * 0
		}
		if neg {
			return 0xfc00
		}
		return 0x7c00
	}
	if az || bz {
		if neg {
			return 0x8000
		}
		return 0
	}
	da, db := decode16(a), decode16(b)
	return encode16(neg, da.sig*db.sig, da.exp+db.exp)
}

func isNaN16(h uint16) bool { return h&0x7c00 == 0x7c00 && h&0x3ff != 0 }
func isInf16(h uint16) bool { return h&0x7fff == 0x7c00 }

// bfloat16 mirrors of the binary16 references above.

func decodeBF(h uint16) dec16 {
	d := dec16{neg: h&0x8000 != 0}
	e := int(h>>7) & 0xff
	m := uint64(h) & 0x7f
	if e == 0 {
		d.sig = m
		d.exp = -133
		return d
	}
	d.sig = m | 1<<7
	d.exp = e - 127 - 7
	return d
}

// encodeBF rounds the exact value ±sig*2^exp to bfloat16 (RNE).
func encodeBF(neg bool, sig uint64, exp int) uint16 {
	var sign uint16
	if neg {
		sign = 0x8000
	}
	if sig == 0 {
		return sign
	}
	p := bits.Len64(sig) - 1
	e := p + exp
	if e > 127 {
		return sign | 0x7f80
	}
	if e >= -126 {
		s := rneShift(sig, p-7)
		if s >= 1<<8 {
			s >>= 1
			e++
			if e > 127 {
				return sign | 0x7f80
			}
		}
		return sign | uint16(e+127)<<7 | uint16(s&0x7f)
	}
	mant := rneShift(sig, -(exp + 133))
	return sign | uint16(mant)
}

func isNaNBF(h uint16) bool { return h&0x7f80 == 0x7f80 && h&0x7f != 0 }
func isInfBF(h uint16) bool { return h&0x7fff == 0x7f80 }

// softAddBF returns a+b in bfloat16 using integer-only arithmetic.
func softAddBF(a, b uint16) uint16 {
	if isNaNBF(a) || isNaNBF(b) {
		return 0x7fc0
	}
	ai, bi := isInfBF(a), isInfBF(b)
	switch {
	case ai && bi:
		if a == b {
			return a
		}
		return 0x7fc0
	case ai:
		return a
	case bi:
		return b
	}
	da, db := decodeBF(a), decodeBF(b)
	if da.sig == 0 && db.sig == 0 {
		if da.neg && db.neg {
			return 0x8000
		}
		return 0
	}
	// Exponents lie in [-133, 120]; with 8-bit significands the largest
	// alignment shift (253 bits) would overflow int64. Beyond 45 bits
	// the smaller operand is far below the final rounding position and
	// only matters as a sticky contribution, so collapse it to one.
	if da.exp-db.exp > 45 {
		db.exp = da.exp - 45
		if db.sig != 0 {
			db.sig = 1
		}
	}
	if db.exp-da.exp > 45 {
		da.exp = db.exp - 45
		if da.sig != 0 {
			da.sig = 1
		}
	}
	e := da.exp
	if db.exp < e {
		e = db.exp
	}
	va := int64(da.sig) << uint(da.exp-e)
	vb := int64(db.sig) << uint(db.exp-e)
	if da.neg {
		va = -va
	}
	if db.neg {
		vb = -vb
	}
	sum := va + vb
	if sum == 0 {
		return 0
	}
	neg := sum < 0
	if neg {
		sum = -sum
	}
	return encodeBF(neg, uint64(sum), e)
}

// softMulBF returns a*b in bfloat16 using integer-only arithmetic.
func softMulBF(a, b uint16) uint16 {
	if isNaNBF(a) || isNaNBF(b) {
		return 0x7fc0
	}
	neg := (a^b)&0x8000 != 0
	ai, bi := isInfBF(a), isInfBF(b)
	az, bz := a&0x7fff == 0, b&0x7fff == 0
	if ai || bi {
		if az || bz {
			return 0x7fc0
		}
		if neg {
			return 0xff80
		}
		return 0x7f80
	}
	if az || bz {
		if neg {
			return 0x8000
		}
		return 0
	}
	da, db := decodeBF(a), decodeBF(b)
	return encodeBF(neg, da.sig*db.sig, da.exp+db.exp)
}
