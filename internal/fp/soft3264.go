package fp

import "math/bits"

// This file extends the independent integer-only softfloat cross-checks
// of softref_test.go to binary32 and binary64. For those formats the Machine
// uses the host FPU, so agreement here validates the decode/normalize/
// round-to-nearest-even machinery against actual IEEE-754 hardware —
// the strongest ground truth available to the test suite.

// decF decodes a binary32/64 encoding into sign, scale and integer
// significand (value = ±sig * 2^exp; sig includes the implicit bit for
// normals). Specials must be filtered by the caller.
func decF(f Format, b Bits) dec16 {
	d := dec16{neg: f.Sign(b)}
	mant := uint64(f.Mantissa(b))
	e := f.Exponent(b)
	mb := f.MantBits()
	if e == 0 {
		d.sig = mant
		d.exp = 1 - f.Bias() - mb
		return d
	}
	d.sig = mant | 1<<uint(mb)
	d.exp = e - f.Bias() - mb
	return d
}

// encF rounds the exact value ±(hi*2^64 + lo)*2^exp to format f (RNE).
func encF(f Format, neg bool, hi, lo uint64, exp int) Bits {
	var sign Bits
	if neg {
		sign = f.signMask()
	}
	if hi == 0 && lo == 0 {
		return sign
	}
	// Leading bit position of the 128-bit significand.
	p := bits.Len64(lo) - 1
	if hi != 0 {
		p = 64 + bits.Len64(hi) - 1
	}
	e := p + exp
	mb := f.MantBits()
	maxE := f.Bias()
	minE := 1 - f.Bias()

	if e > maxE {
		return sign | f.expMask()
	}
	if e >= minE {
		s := rne128(hi, lo, p-mb)
		if s >= 1<<uint(mb+1) {
			s >>= 1
			e++
			if e > maxE {
				return sign | f.expMask()
			}
		}
		return sign | Bits(e+f.Bias())<<uint(mb) | Bits(s)&f.mantMask()
	}
	// Subnormal: mant = round(value * 2^(bias - 1 + mb)).
	mant := rne128(hi, lo, -(exp + f.Bias() - 1 + mb))
	return sign | Bits(mant)
}

// rne128 shifts the 128-bit value hi:lo right by n bits with
// round-to-nearest-even, returning a uint64 (callers guarantee the kept
// part fits). n <= 0 shifts lo left (hi must be 0 then).
func rne128(hi, lo uint64, n int) uint64 {
	if n <= 0 {
		return lo << uint(-n)
	}
	if n > 128 {
		return 0
	}
	var kept, round, sticky uint64
	switch {
	case n <= 64:
		if n == 64 {
			kept = hi
			round = lo >> 63
			if lo&(1<<63-1) != 0 {
				sticky = 1
			}
		} else {
			kept = hi<<uint(64-n) | lo>>uint(n)
			round = lo >> uint(n-1) & 1
			if n >= 2 && lo&(1<<uint(n-1)-1) != 0 {
				sticky = 1
			}
		}
	case n == 128:
		round = hi >> 63
		if hi&(1<<63-1) != 0 || lo != 0 {
			sticky = 1
		}
	default: // 64 < n < 128
		m := n - 64
		kept = hi >> uint(m)
		round = hi >> uint(m-1) & 1
		if hi&(1<<uint(m-1)-1) != 0 || lo != 0 {
			sticky = 1
		}
	}
	if round == 1 && (sticky == 1 || kept&1 == 1) {
		kept++
	}
	return kept
}

// softMulWide returns a*b in format f (binary32 or binary64) using only
// integer arithmetic.
func softMulWide(f Format, a, b Bits) Bits {
	if f.IsNaN(a) || f.IsNaN(b) {
		return f.QuietNaN()
	}
	neg := f.Sign(a) != f.Sign(b)
	ai, bi := f.IsInf(a), f.IsInf(b)
	az, bz := f.IsZero(a), f.IsZero(b)
	if ai || bi {
		if az || bz {
			return f.QuietNaN()
		}
		return f.Inf(neg)
	}
	if az || bz {
		var sign Bits
		if neg {
			sign = f.signMask()
		}
		return sign
	}
	da, db := decF(f, a), decF(f, b)
	hi, lo := bits.Mul64(da.sig, db.sig)
	return encF(f, neg, hi, lo, da.exp+db.exp)
}

// softAddWide returns a+b in format f (binary32 or binary64) using only
// integer arithmetic.
func softAddWide(f Format, a, b Bits) Bits {
	if f.IsNaN(a) || f.IsNaN(b) {
		return f.QuietNaN()
	}
	ai, bi := f.IsInf(a), f.IsInf(b)
	switch {
	case ai && bi:
		if a == b {
			return a
		}
		return f.QuietNaN()
	case ai:
		return a
	case bi:
		return b
	}
	da, db := decF(f, a), decF(f, b)
	if da.sig == 0 && db.sig == 0 {
		if da.neg && db.neg {
			return f.signMask()
		}
		return 0
	}
	// Collapse extreme alignment gaps to a sticky contribution; 60 bits
	// is far beyond any rounding relevance for <= 53-bit significands.
	if da.exp-db.exp > 60 {
		db.exp = da.exp - 60
		if db.sig != 0 {
			db.sig = 1
		}
	}
	if db.exp-da.exp > 60 {
		da.exp = db.exp - 60
		if da.sig != 0 {
			da.sig = 1
		}
	}
	e := da.exp
	if db.exp < e {
		e = db.exp
	}
	// Align into 128 bits: sig <= 2^53 shifted by <= 60 keeps well
	// inside the range.
	aHi, aLo := shl128(da.sig, uint(da.exp-e))
	bHi, bLo := shl128(db.sig, uint(db.exp-e))

	if da.neg == db.neg {
		lo, carry := bits.Add64(aLo, bLo, 0)
		hi, _ := bits.Add64(aHi, bHi, carry)
		return encF(f, da.neg, hi, lo, e)
	}
	// Opposite signs: subtract the smaller magnitude from the larger.
	if aHi > bHi || (aHi == bHi && aLo >= bLo) {
		lo, borrow := bits.Sub64(aLo, bLo, 0)
		hi, _ := bits.Sub64(aHi, bHi, borrow)
		if hi == 0 && lo == 0 {
			return 0 // exact cancellation yields +0 under RNE
		}
		return encF(f, da.neg, hi, lo, e)
	}
	lo, borrow := bits.Sub64(bLo, aLo, 0)
	hi, _ := bits.Sub64(bHi, aHi, borrow)
	return encF(f, db.neg, hi, lo, e)
}

// shl128 shifts a 64-bit value left by s (< 64) into a 128-bit result.
func shl128(v uint64, s uint) (hi, lo uint64) {
	if s == 0 {
		return 0, v
	}
	return v >> (64 - s), v << s
}
