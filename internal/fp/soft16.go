package fp

// dec16 holds a decoded value: magnitude sig * 2^exp with the stated
// sign. For normal numbers sig includes the implicit bit; for
// subnormals sig is the raw fraction. Zero has sig == 0. Infinities and
// NaNs are handled before decoding. The integer-only references of the
// tests (softref_test.go, soft3264.go) share it.
type dec16 struct {
	neg bool
	exp int // power-of-two scale of sig's integer value
	sig uint64
}

// rneShift shifts sig right by n bits with round-to-nearest-even
// (n may exceed 63; n <= 0 shifts left, which the callers guarantee
// cannot overflow).
func rneShift(sig uint64, n int) uint64 {
	if n <= 0 {
		return sig << uint(-n)
	}
	var kept, round, sticky uint64
	switch {
	case n > 64:
		return 0
	case n == 64:
		round = sig >> 63
		if sig&(1<<63-1) != 0 {
			sticky = 1
		}
	default:
		kept = sig >> uint(n)
		round = sig >> uint(n-1) & 1
		if sig&(1<<uint(n-1)-1) != 0 {
			sticky = 1
		}
	}
	if round == 1 && (sticky == 1 || kept&1 == 1) {
		kept++
	}
	return kept
}
