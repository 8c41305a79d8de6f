package kernels

import (
	"fmt"

	"mixedrel/internal/fp"
	"mixedrel/internal/rng"
)

// LavaMD computes particle potentials and forces in a 3D grid of boxes
// due to mutual interactions with particles in the 26-neighborhood plus
// the home box, following the Rodinia kernel the paper runs. For every
// particle pair (i home, j neighbor):
//
//	r2  = ri.v + rj.v - 2*dot(ri, rj)
//	u2  = alpha^2 * r2
//	vij = exp(-u2)
//	fs  = 2 * vij
//	d   = ri - rj                  (component-wise, x/y/z)
//	fA[i].v += qv[j] * vij
//	fA[i].{x,y,z} += qv[j] * fs * d.{x,y,z}
//
// The kernel is MUL-dominated (the paper reports >50% MUL instructions)
// and is the only workload exercising the transcendental exp, which is
// what drives its distinctive criticality behaviour on the Xeon Phi.
type LavaMD struct {
	dim   int // boxes per grid edge
	perBx int // particles per box
	alpha float64
	rv    []float64 // 4 values per particle: v, x, y, z
	qv    []float64 // 1 charge per particle
	key   string
}

// NewLavaMD creates a dim^3-box grid with perBox particles per box and
// deterministic inputs. It panics for non-positive shape parameters.
func NewLavaMD(dim, perBox int, seed uint64) *LavaMD {
	if dim <= 0 || perBox <= 0 {
		panic(fmt.Sprintf("kernels: LavaMD shape %dx%d", dim, perBox))
	}
	r := rng.New(seed)
	n := dim * dim * dim * perBox
	return &LavaMD{
		dim:   dim,
		perBx: perBox,
		alpha: 0.5,
		rv:    uniform(r, 4*n, 0.1, 1.0),
		qv:    uniform(r, n, 0.1, 1.0),
		key:   fmt.Sprintf("lavamd/d%d/p%d/s%d", dim, perBox, seed),
	}
}

// Name implements Kernel.
func (l *LavaMD) Name() string { return "LavaMD" }

// Key implements Kernel.
func (l *LavaMD) Key() string { return l.key }

// Particles returns the total particle count.
func (l *LavaMD) Particles() int { return l.dim * l.dim * l.dim * l.perBx }

// Inputs implements Kernel: element 0 is rv (v,x,y,z per particle),
// element 1 is qv.
func (l *LavaMD) Inputs(f fp.Format) [][]fp.Bits {
	return [][]fp.Bits{encode(f, l.rv), encode(f, l.qv)}
}

// Run implements Kernel. The output is fA: 4 accumulators (v,x,y,z) per
// particle.
func (l *LavaMD) Run(env fp.Env, in [][]fp.Bits) []fp.Bits {
	return l.RunInto(env, in, nil)
}

// RunInto implements OutputKernel. Each home box is one open output
// tile: its particles' accumulators, zeroed and summed inside the tile
// from the inputs and the prologue constants alone.
func (l *LavaMD) RunInto(env fp.Env, in [][]fp.Bits, out []fp.Bits) []fp.Bits {
	rv, qv := in[0], in[1]
	dim, perBox := l.dim, l.perBx
	fA := ensureBits(out, 4*l.Particles())
	zero := env.FromFloat64(0)
	a2 := env.Mul(env.FromFloat64(l.alpha), env.FromFloat64(l.alpha))
	two := env.FromFloat64(2)
	negOne := env.FromFloat64(-1)

	boxIndex := func(bx, by, bz int) int { return (bz*dim+by)*dim + bx }

	for bz := 0; bz < dim; bz++ {
		for by := 0; by < dim; by++ {
			for bx := 0; bx < dim; bx++ {
				box := boxIndex(bx, by, bz)
				if _, skip := fp.SkipTile(env, box, nil, nil); skip {
					continue
				}
				home := box * perBox
				acc := fA[4*home : 4*(home+perBox)]
				for i := range acc {
					acc[i] = zero
				}
				// Home box plus the 26 neighbors, clamped at the
				// grid boundary (Rodinia uses no periodic wrap).
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							nx, ny, nz := bx+dx, by+dy, bz+dz
							if nx < 0 || ny < 0 || nz < 0 || nx >= dim || ny >= dim || nz >= dim {
								continue
							}
							nb := boxIndex(nx, ny, nz) * perBox
							l.interact(env, rv, qv, fA, home, nb, a2, two, negOne)
						}
					}
				}
			}
		}
	}
	return fA
}

// interact accumulates the contribution of the perBox particles starting
// at box nb onto the particles starting at box home.
func (l *LavaMD) interact(env fp.Env, rv, qv, fA []fp.Bits, home, nb int, a2, two, negOne fp.Bits) {
	// Every pair interaction is one dependent chain through exp with
	// four interleaved accumulators; Rodinia's op order is the spec.
	//mixedrelvet:allow batchops dependent pair chain with interleaved accumulators
	for i := home; i < home+l.perBx; i++ {
		riV, riX, riY, riZ := rv[4*i], rv[4*i+1], rv[4*i+2], rv[4*i+3]
		accV, accX, accY, accZ := fA[4*i], fA[4*i+1], fA[4*i+2], fA[4*i+3]
		for j := nb; j < nb+l.perBx; j++ {
			rjV, rjX, rjY, rjZ := rv[4*j], rv[4*j+1], rv[4*j+2], rv[4*j+3]
			// dot(ri, rj) over the spatial components.
			dot := env.Mul(riX, rjX)
			dot = env.FMA(riY, rjY, dot)
			dot = env.FMA(riZ, rjZ, dot)
			// r2 = ri.v + rj.v - 2*dot
			r2 := env.Add(riV, rjV)
			r2 = env.Sub(r2, env.Mul(two, dot))
			// u2 = a2*r2; vij = exp(-u2)
			u2 := env.Mul(a2, r2)
			vij := env.Exp(env.Mul(negOne, u2))
			fs := env.Mul(two, vij)
			dX := env.Sub(riX, rjX)
			dY := env.Sub(riY, rjY)
			dZ := env.Sub(riZ, rjZ)
			q := qv[j]
			accV = env.FMA(q, vij, accV)
			qfs := env.Mul(q, fs)
			accX = env.FMA(qfs, dX, accX)
			accY = env.FMA(qfs, dY, accY)
			accZ = env.FMA(qfs, dZ, accZ)
		}
		fA[4*i], fA[4*i+1], fA[4*i+2], fA[4*i+3] = accV, accX, accY, accZ
	}
}
