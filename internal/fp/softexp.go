package fp

import (
	"fmt"
	"math"
)

// ExpDecomp wraps an Env and replaces the atomic Exp with a software
// implementation — range reduction, a Horner polynomial, repeated
// squaring, and power-of-two reconstruction — computed entirely through
// the inner Env's Add/Mul/FMA operations.
//
// This mirrors how real platforms run transcendentals: the paper notes
// that GPUs execute functions like exp in software, and that the Xeon
// Phi's double-precision transcendental runs a longer, more accurate
// sequence than single (Harrison et al., the paper's [43]). The device
// models pick Terms and Squarings per precision; what matters for
// reliability is that every intermediate step becomes an injectable
// fault site, so the longer the routine, the more of a kernel's exposure
// sits inside the transcendental.
//
// The algorithm, for finite x:
//
//	k  = round(x / ln 2)           (host-side integer decision)
//	r  = x - k ln 2                (one FMA;  |r| <= ln2/2)
//	r' = r * 2^-Squarings          (one exact Mul)
//	p  = sum_{i<Terms} r'^i / i!   (Terms-1 FMAs, Horner)
//	p  = p^2, Squarings times      (Squarings Muls)
//	result = p * 2^k               (one or two exact Muls)
type ExpDecomp struct {
	Inner Env
	// Terms is the Horner polynomial length (>= 2).
	Terms int
	// Squarings is the argument-halving depth m: the polynomial runs on
	// r/2^m and the result is squared m times.
	Squarings int
	// IntSites is the number of integer sequencing decisions the
	// implementation makes per call (range-reduction quotients, table
	// indices, shift counts). Table-driven double-precision
	// implementations (the paper's [43]) carry several; branch-free
	// vectorized polynomials carry one. Each is exposed to the inner
	// environment through the IntDecider hook, so strikes on the
	// routine's *integer* state — which scale the result by a power of
	// two — become injectable. Zero means 1.
	IntSites int

	// consts caches the encoded constants of the current (format,
	// Terms, Squarings); built on first use and rebuilt if any changes.
	consts *expConsts
}

// expConsts are the ExpDecomp constants that depend only on the format,
// Terms and Squarings, encoded once instead of on every call.
type expConsts struct {
	format           Format
	terms, squarings int
	maxLog           float64 // ln of the format's largest finite value
	negLn2           Bits    // -ln 2
	halving          Bits    // 2^-Squarings
	top              Bits    // 1/(Terms-1)!, the Horner seed
	coef             []Bits  // coef[i] = 1/i!, i < Terms-1
}

// constants returns e's encoded constants for format f.
func (e *ExpDecomp) constants(f Format) *expConsts {
	if c := e.consts; c != nil && c.format == f && c.terms == e.Terms && c.squarings == e.Squarings {
		return c
	}
	c := &expConsts{
		format:    f,
		terms:     e.Terms,
		squarings: e.Squarings,
		maxLog:    math.Log(f.MaxFinite()),
		negLn2:    e.FromFloat64(-math.Ln2),
		halving:   e.FromFloat64(math.Ldexp(1, -e.Squarings)),
		top:       e.FromFloat64(1.0 / factorial(e.Terms-1)),
		coef:      make([]Bits, max(e.Terms-1, 0)),
	}
	for i := range c.coef {
		c.coef[i] = e.FromFloat64(1.0 / factorial(i))
	}
	e.consts = c
	return c
}

// NewExpDecomp wraps inner with a software exp of the given shape.
// Terms below 2 are raised to 2; negative Squarings become 0; IntSites
// below 1 becomes 1.
func NewExpDecomp(inner Env, terms, squarings int) *ExpDecomp {
	if terms < 2 {
		terms = 2
	}
	if squarings < 0 {
		squarings = 0
	}
	return &ExpDecomp{Inner: inner, Terms: terms, Squarings: squarings, IntSites: 1}
}

// IntDecider is implemented by environments that observe (and possibly
// corrupt) the integer sequencing decisions of software routines: the
// counting environment tallies them, the injecting environment can flip
// their bits. The value flows through unchanged otherwise.
type IntDecider interface {
	IntDecision(k int) int
}

// Format implements Env.
func (e *ExpDecomp) Format() Format { return e.Inner.Format() }

// Add implements Env.
func (e *ExpDecomp) Add(a, b Bits) Bits { return e.Inner.Add(a, b) }

// Sub implements Env.
func (e *ExpDecomp) Sub(a, b Bits) Bits { return e.Inner.Sub(a, b) }

// Mul implements Env.
func (e *ExpDecomp) Mul(a, b Bits) Bits { return e.Inner.Mul(a, b) }

// Div implements Env.
func (e *ExpDecomp) Div(a, b Bits) Bits { return e.Inner.Div(a, b) }

// FMA implements Env.
func (e *ExpDecomp) FMA(a, b, c Bits) Bits { return e.Inner.FMA(a, b, c) }

// Sqrt implements Env.
func (e *ExpDecomp) Sqrt(a Bits) Bits { return e.Inner.Sqrt(a) }

// Tile implements Tiler by forwarding to the inner environment: the
// software exp carries no per-call state, so a tile the inner
// environment skips needs nothing from this layer.
func (e *ExpDecomp) Tile(t int, in, out []Bits) (Bits, bool) { return SkipTile(e.Inner, t, in, out) }

// FromFloat64 implements Env.
func (e *ExpDecomp) FromFloat64(v float64) Bits { return e.Inner.FromFloat64(v) }

// ToFloat64 implements Env.
func (e *ExpDecomp) ToFloat64(b Bits) float64 { return e.Inner.ToFloat64(b) }

// Exp implements Env with the software sequence.
func (e *ExpDecomp) Exp(x Bits) Bits {
	f := e.Format()
	in := e.Inner
	xf := e.ToFloat64(x)

	// Specials and range clamping follow the hardware semantics.
	switch {
	case math.IsNaN(xf):
		return f.QuietNaN()
	case math.IsInf(xf, 1):
		return f.Inf(false)
	case math.IsInf(xf, -1):
		return e.FromFloat64(0)
	}
	// Beyond these bounds the result overflows/underflows the format
	// regardless of the computation path.
	c := e.constants(f)
	if xf > c.maxLog+1 {
		return f.Inf(false)
	}
	if xf < -c.maxLog-float64(f.MantBits()) {
		return e.FromFloat64(0)
	}

	k := int(math.Round(xf / math.Ln2))

	// r = x - k*ln2 via FMA with the format's rounded ln2.
	r := in.FMA(e.FromFloat64(float64(k)), c.negLn2, x)

	// Argument halving: r' = r * 2^-m (exact scaling).
	m := e.Squarings
	if m > 0 {
		r = in.Mul(r, c.halving)
	}

	// Horner polynomial for e^r', coefficients 1/i!.
	acc := c.top
	for i := len(c.coef) - 1; i >= 0; i-- {
		acc = in.FMA(acc, r, c.coef[i])
	}

	// Undo the halving by repeated squaring.
	for i := 0; i < m; i++ {
		acc = in.Mul(acc, acc)
	}

	// The reduction quotient is re-read for reconstruction through the
	// routine's integer sequencing state (table indices, shift counts):
	// a strike between its uses scales the result by a power of two
	// while the polynomial remains consistent — the failure mode of a
	// corrupted table fetch. (A strike corrupting k before *both* uses
	// would cancel out: exp(x - k ln2) * 2^k is k-invariant.)
	if d, ok := in.(IntDecider); ok {
		sites := e.IntSites
		if sites < 1 {
			sites = 1
		}
		for i := 0; i < sites; i++ {
			k = d.IntDecision(k)
		}
	}

	// Reconstruct 2^k with exact power-of-two multiplies, split so each
	// factor stays representable in the format.
	maxStep := f.Bias() - 1
	for k != 0 {
		step := k
		if step > maxStep {
			step = maxStep
		}
		if step < -maxStep {
			step = -maxStep
		}
		acc = in.Mul(acc, e.FromFloat64(math.Ldexp(1, step)))
		k -= step
	}
	return acc
}

// factorial returns n! as a float64 (exact for n <= 22).
func factorial(n int) float64 {
	out := 1.0
	for i := 2; i <= n; i++ {
		out *= float64(i)
	}
	return out
}

// ExpShape describes a platform's software-exp implementation for one
// precision; device models map precisions to shapes.
type ExpShape struct {
	Terms     int
	Squarings int
	// IntSites is the number of integer sequencing decisions per call
	// (see ExpDecomp.IntSites). Zero means 1.
	IntSites int
}

// Key returns a string identifying the arithmetic behavior of the
// wrap WrapExp(s) produces, for memoizing fault-free artifacts
// (arch.Mapping.WrapKey).
func (s ExpShape) Key() string {
	return fmt.Sprintf("softexp/t%d/q%d/i%d", s.Terms, s.Squarings, s.IntSites)
}

// WrapExp returns an Env transform installing a software exp of the
// given shape, suitable for arch.Mapping.Wrap.
func WrapExp(shape ExpShape) func(Env) Env {
	return func(inner Env) Env {
		d := NewExpDecomp(inner, shape.Terms, shape.Squarings)
		if shape.IntSites > 0 {
			d.IntSites = shape.IntSites
		}
		return d
	}
}
