package kernels

import (
	"fmt"
	"math"

	"mixedrel/internal/fp"
	"mixedrel/internal/rng"
)

// CG solves a dense symmetric positive-definite system A x = b with a
// fixed number of conjugate-gradient iterations. Iterative solvers are
// the classic counter-example to "every fault matters": a corrupted
// intermediate perturbs the search direction, and later iterations steer
// back toward the solution — soft errors are partially *absorbed* by
// convergence rather than propagated. The ext-solver experiment
// quantifies that against the direct solvers (LUD), extending the
// paper's masking discussion (Section 2.1) with an algorithmic masking
// mechanism.
//
// The matrix is generated as A = M^T M / n + I (symmetric positive
// definite, moderate condition number), b is dense, and the output is
// the iterate x after the fixed iteration count.
type CG struct {
	n     int
	iters int
	a     []float64
	b     []float64
	key   string
}

// NewCG creates an n x n SPD system solved with iters CG steps.
// It panics for non-positive shape parameters.
func NewCG(n, iters int, seed uint64) *CG {
	if n <= 0 || iters <= 0 {
		panic(fmt.Sprintf("kernels: CG shape %dx%d", n, iters))
	}
	r := rng.New(seed)
	m := uniform(r, n*n, -1, 1)
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += m[k*n+i] * m[k*n+j]
			}
			s /= float64(n)
			if i == j {
				s += 1
			}
			a[i*n+j] = s
			a[j*n+i] = s
		}
	}
	return &CG{n: n, iters: iters, a: a, b: uniform(r, n, 0.5, 1),
		key: fmt.Sprintf("cg/n%d/i%d/s%d", n, iters, seed)}
}

// Name implements Kernel.
func (c *CG) Name() string { return "CG" }

// Key implements Kernel.
func (c *CG) Key() string { return c.key }

// N returns the system dimension.
func (c *CG) N() int { return c.n }

// Inputs implements Kernel: element 0 is A (row-major), element 1 is b.
func (c *CG) Inputs(f fp.Format) [][]fp.Bits {
	return [][]fp.Bits{encode(f, c.a), encode(f, c.b)}
}

// Run implements Kernel: textbook CG from x0 = 0, fixed iteration count
// (no convergence test — branches on corrupted data would make golden
// comparison ambiguous; the paper's codes likewise run fixed workloads).
func (c *CG) Run(env fp.Env, in [][]fp.Bits) []fp.Bits {
	return c.RunInto(env, in, nil)
}

// RunInto implements OutputKernel. Dot products and the matrix-vector
// product run as DotFMA chains (identical dynamic op order to the
// scalar loops they replace); the vector updates stay scalar because
// their interleaving carries semantic weight for fault indices.
func (c *CG) RunInto(env fp.Env, in [][]fp.Bits, out []fp.Bits) []fp.Bits {
	n := c.n
	a, b := in[0], in[1]
	zero := env.FromFloat64(0)
	negOne := env.FromFloat64(-1)

	x := ensureBits(out, n)
	buf := getBuf(3 * n)
	defer putBuf(buf)
	r := buf.s[:n]
	p := buf.s[n : 2*n]
	ap := buf.s[2*n : 3*n]
	for i := 0; i < n; i++ {
		x[i] = zero
		r[i] = b[i] // r = b - A*0
		p[i] = b[i]
	}

	rs := fp.DotFMA(env, zero, r, r)
	for it := 0; it < c.iters; it++ {
		// Standard exact-convergence exit: once the residual norm
		// underflows the format (routine in half precision), further
		// steps would divide zero by zero.
		if env.Format().IsZero(rs) {
			break
		}
		// ap = A p: n single-column chains against the shared vector p.
		fp.GemmFMA(env, ap, nil, a, p, n, 1, n)
		alpha := env.Div(rs, fp.DotFMA(env, zero, p, ap))
		//mixedrelvet:allow batchops one scalar per iteration, not an element-wise batch
		negAlpha := env.Mul(alpha, negOne)
		// x and r advance in lockstep (x[i] then r[i]); two AXPY calls
		// would reorder the dynamic op stream and move fault indices.
		//mixedrelvet:allow batchops interleaved x/r update must keep scalar op order
		for i := 0; i < n; i++ {
			x[i] = env.FMA(alpha, p[i], x[i])
			r[i] = env.FMA(negAlpha, ap[i], r[i])
		}
		rsNew := fp.DotFMA(env, zero, r, r)
		beta := env.Div(rsNew, rs)
		// p = beta*p + r broadcasts onto the multiply side of the FMA,
		// which no batch op expresses.
		//mixedrelvet:allow batchops broadcast-times-destination has no batch form
		for i := 0; i < n; i++ {
			p[i] = env.FMA(beta, p[i], r[i])
		}
		rs = rsNew
	}
	return x
}

// Residual returns the float64 residual norm ||A x - b|| of a decoded
// output, the solver-quality measure the absorption analysis uses.
func (c *CG) Residual(x []float64) float64 {
	n := c.n
	var sum float64
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += c.a[i*n+j] * x[j]
		}
		d := s - c.b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
