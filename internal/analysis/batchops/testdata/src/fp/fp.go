// Package fp is a stand-in for mixedrel/internal/fp: the Env interface
// the analyzer matches receivers against, plus a representative batch
// helper. The analyzer skips this package (only "kernels" is checked),
// so the scalar fallback loop below is not flagged.
package fp

type Bits uint64

type Format int

// Env is the scalar soft-float environment.
type Env interface {
	Format() Format
	FromFloat64(float64) Bits
	Add(a, b Bits) Bits
	Mul(a, b Bits) Bits
	Div(a, b Bits) Bits
	FMA(a, b, c Bits) Bits
}

// DotFMA folds acc through the chain acc = env.FMA(a[i], b[i], acc).
func DotFMA(env Env, acc Bits, a, b []Bits) Bits {
	for i, ai := range a {
		acc = env.FMA(ai, b[i], acc)
	}
	return acc
}
