// Package kernels exercises the batchops analyzer: per-element Env
// arithmetic loops are flagged once per innermost loop, unless a
// directive on the loop (or an enclosing statement) explains why the
// scalar order is the contract.
package kernels

import "fp"

func addLoop(env fp.Env, dst, a, b []fp.Bits) {
	for i := range a { // want `loop applies scalar env\.Add per element`
		dst[i] = env.Add(a[i], b[i])
	}
}

func mulLoop(env fp.Env, t []fp.Bits) {
	eighth := env.FromFloat64(0.125)
	for i, v := range t { // want `loop applies scalar env\.Mul per element`
		t[i] = env.Mul(v, eighth)
	}
}

// fmaNest attributes the diagnostic to the innermost loop and reports it
// once even though the loop body holds two flaggable calls.
func fmaNest(env fp.Env, m []fp.Bits, n int) {
	acc := env.FromFloat64(0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ { // want `loop applies scalar env\.FMA per element`
			acc = env.FMA(m[i*n+j], m[j*n+i], acc)
			acc = env.FMA(m[j*n+i], m[i*n+j], acc)
		}
	}
	_ = acc
}

// allowedInterleave carries the escape hatch directly on the loop.
func allowedInterleave(env fp.Env, x, r, p, ap []fp.Bits, alpha, negAlpha fp.Bits) {
	//mixedrelvet:allow batchops interleaved x/r update must keep scalar op order
	for i := range x {
		x[i] = env.FMA(alpha, p[i], x[i])
		r[i] = env.FMA(negAlpha, ap[i], r[i])
	}
}

// allowedNest carries the directive on the outer loop of a nest; the
// exemption covers the flagged calls in the inner loop.
func allowedNest(env fp.Env, t []fp.Bits, n int) {
	q := env.FromFloat64(0.25)
	//mixedrelvet:allow batchops dependent per-window reduction
	for c := 0; c < n; c++ {
		for i := range t {
			t[i] = env.Mul(t[i], q)
		}
	}
}

// batched is the intended shape: helper calls are fine inside loops.
func batched(env fp.Env, dst, a, b []fp.Bits) {
	for it := 0; it < 3; it++ {
		dst[it] = fp.DotFMA(env, dst[0], a, b)
	}
}

// divLoop stays scalar legitimately: Div has no batch form.
func divLoop(env fp.Env, dst, a []fp.Bits, s fp.Bits) {
	for i := range a {
		dst[i] = env.Div(a[i], s)
	}
}

// single is not in a loop at all.
func single(env fp.Env, a, b fp.Bits) fp.Bits {
	return env.Add(a, b)
}
