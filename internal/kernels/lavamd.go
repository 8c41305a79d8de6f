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

// RunInto implements OutputKernel. Each (home box, neighbour box)
// interaction is one closed output tile, numbered in loop order, whose
// live-ins are a2, the home box's rv, the neighbour box's rv and qv, and
// the home box's accumulators as they enter the tile (zeros before the
// first neighbour), laid out in one pooled buffer that interact reads.
// Every tile but a home box's last names the accumulators it leaves as
// its outputs, kept in that buffer; the last writes them to fA and names
// none. An injected run recomputes only the box pairs its fault reaches.
func (l *LavaMD) RunInto(env fp.Env, in [][]fp.Bits, out []fp.Bits) []fp.Bits {
	rv, qv := in[0], in[1]
	dim, perBox := l.dim, l.perBx
	fA := ensureBits(out, 4*l.Particles())
	buf := getBuf(1 + 13*perBox)
	defer putBuf(buf)
	live := buf.s
	homeRV, nbRV, nbQV, acc := l.split(live)
	zero := env.FromFloat64(0)
	live[0] = env.Mul(env.FromFloat64(l.alpha), env.FromFloat64(l.alpha)) // a2
	two := env.FromFloat64(2)
	negOne := env.FromFloat64(-1)

	boxIndex := func(bx, by, bz int) int { return (bz*dim+by)*dim + bx }

	tile := 0
	for bz := 0; bz < dim; bz++ {
		for by := 0; by < dim; by++ {
			for bx := 0; bx < dim; bx++ {
				home := boxIndex(bx, by, bz) * perBox
				copy(homeRV, rv[4*home:4*(home+perBox)])
				for i := range acc {
					acc[i] = zero
				}
				// The home box's last neighbour, the last in loop order.
				last := boxIndex(min(bx+1, dim-1), min(by+1, dim-1), min(bz+1, dim-1))
				// Home box plus the 26 neighbors, clamped at the
				// grid boundary (Rodinia uses no periodic wrap).
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							nx, ny, nz := bx+dx, by+dy, bz+dz
							if nx < 0 || ny < 0 || nz < 0 || nx >= dim || ny >= dim || nz >= dim {
								continue
							}
							box := boxIndex(nx, ny, nz)
							nb := box * perBox
							copy(nbRV, rv[4*nb:4*(nb+perBox)])
							copy(nbQV, qv[nb:nb+perBox])
							dst, named := acc, acc
							if box == last {
								dst, named = fA[4*home:4*(home+perBox)], nil
							}
							_, skip := fp.SkipTile(env, tile, live, named)
							tile++
							if !skip {
								l.interact(env, live, dst, two, negOne)
							}
						}
					}
				}
			}
		}
	}
	return fA
}

// split returns the parts of a tile's live-ins after a2: the home box's
// rv, the neighbour box's rv and qv, and the home box's accumulators.
func (l *LavaMD) split(live []fp.Bits) (homeRV, nbRV, nbQV, acc []fp.Bits) {
	p := l.perBx
	return live[1 : 1+4*p], live[1+4*p : 1+8*p], live[1+8*p : 1+9*p], live[1+9*p : 1+13*p]
}

// interact accumulates the contribution of the neighbour box's particles
// onto the home box's, reading a tile's live-ins (see RunInto) and
// writing the home box's accumulators to dst, which may alias them.
func (l *LavaMD) interact(env fp.Env, live, dst []fp.Bits, two, negOne fp.Bits) {
	perBox := l.perBx
	a2 := live[0]
	homeRV, nbRV, nbQV, acc := l.split(live)
	// Every pair interaction is one dependent chain through exp with
	// four interleaved accumulators; Rodinia's op order is the spec.
	//mixedrelvet:allow batchops dependent pair chain with interleaved accumulators
	for i := 0; i < perBox; i++ {
		riV, riX, riY, riZ := homeRV[4*i], homeRV[4*i+1], homeRV[4*i+2], homeRV[4*i+3]
		accV, accX, accY, accZ := acc[4*i], acc[4*i+1], acc[4*i+2], acc[4*i+3]
		for j := 0; j < perBox; j++ {
			rjV, rjX, rjY, rjZ := nbRV[4*j], nbRV[4*j+1], nbRV[4*j+2], nbRV[4*j+3]
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
			q := nbQV[j]
			accV = env.FMA(q, vij, accV)
			qfs := env.Mul(q, fs)
			accX = env.FMA(qfs, dX, accX)
			accY = env.FMA(qfs, dY, accY)
			accZ = env.FMA(qfs, dZ, accZ)
		}
		dst[4*i], dst[4*i+1], dst[4*i+2], dst[4*i+3] = accV, accX, accY, accZ
	}
}
