package kernels

import (
	"fmt"

	"mixedrel/internal/fp"
	"mixedrel/internal/rng"
)

// Hotspot is the Rodinia thermal-simulation kernel: an iterative 2D
// stencil that evolves a chip's temperature grid under a power map. The
// paper's group uses it throughout their GPU reliability studies (it
// appears in the DSN'18 code-dependence paper the discussion cites), and
// it complements the shipped set with a memory-coupled, ADD-dominated
// stencil — the opposite corner of the design space from the
// FMA-dominated GEMM.
//
// Per step, for every interior cell:
//
//	T'[r][c] = T[r][c] + k * (power[r][c]
//	          + (T[r+1][c] + T[r-1][c] - 2 T[r][c]) * Ry
//	          + (T[r][c+1] + T[r][c-1] - 2 T[r][c]) * Rx
//	          + (Tamb - T[r][c]) * Rz)
//
// Border cells stay at their initial (ambient boundary) temperature.
type Hotspot struct {
	n     int // grid edge
	steps int
	temp  []float64
	power []float64
	key   string
}

// Stencil coefficients (Rodinia's defaults, scaled to keep half-range).
const (
	hotspotK    = 0.0625
	hotspotRx   = 0.25
	hotspotRy   = 0.25
	hotspotRz   = 0.0625
	hotspotTamb = 80.0
)

// NewHotspot creates an n x n grid evolved for steps iterations with
// deterministic initial temperature and power maps. It panics for
// non-positive shape parameters.
func NewHotspot(n, steps int, seed uint64) *Hotspot {
	if n < 3 || steps <= 0 {
		panic(fmt.Sprintf("kernels: Hotspot shape %dx%d", n, steps))
	}
	r := rng.New(seed)
	h := &Hotspot{
		n:     n,
		steps: steps,
		temp:  uniform(r, n*n, 70, 90),
		power: uniform(r, n*n, 0, 2),
		key:   fmt.Sprintf("hotspot/n%d/t%d/s%d", n, steps, seed),
	}
	return h
}

// Name implements Kernel.
func (h *Hotspot) Name() string { return "Hotspot" }

// Key implements Kernel.
func (h *Hotspot) Key() string { return h.key }

// N returns the grid edge length.
func (h *Hotspot) N() int { return h.n }

// Inputs implements Kernel: element 0 is the initial temperature grid,
// element 1 the power map.
func (h *Hotspot) Inputs(f fp.Format) [][]fp.Bits {
	return [][]fp.Bits{encode(f, h.temp), encode(f, h.power)}
}

// Run implements Kernel: the output is the final temperature grid.
func (h *Hotspot) Run(env fp.Env, in [][]fp.Bits) []fp.Bits {
	return h.RunInto(env, in, nil)
}

// RunInto implements OutputKernel. The double-buffered grids come from
// the scratch pool. Each row update of each step is one closed output
// tile, numbered in update order, whose live-ins are the current grid's
// rows r-1..r+1 and power row r: an injected run recomputes only the
// rows its fault reaches. Every step but the last writes its rows into
// the next grid and names the row's interior cells as the tile's
// outputs; the last writes its rows into out, after the border cells,
// and names none.
func (h *Hotspot) RunInto(env fp.Env, in [][]fp.Bits, out []fp.Bits) []fp.Bits {
	n := h.n
	buf := getBuf(2*n*n + 4*n)
	defer putBuf(buf)
	cur := buf.s[:n*n]
	copy(cur, in[0])
	next := buf.s[n*n : 2*n*n]
	copy(next, in[0]) // borders keep their boundary temperature
	live := buf.s[2*n*n:]
	power := in[1]
	res := ensureBits(out, n*n)

	k := env.FromFloat64(hotspotK)
	rx := env.FromFloat64(hotspotRx)
	ry := env.FromFloat64(hotspotRy)
	rz := env.FromFloat64(hotspotRz)
	tamb := env.FromFloat64(hotspotTamb)
	negTwo := env.FromFloat64(-2)

	tile := 0
	for s := 0; s < h.steps; s++ {
		last := s == h.steps-1
		if last {
			copyBorder(res, in[0], n)
			next = res
		}
		for r := 1; r < n-1; r++ {
			copy(live, cur[(r-1)*n:(r+2)*n])
			copy(live[3*n:], power[r*n:(r+1)*n])
			row := next[r*n+1 : (r+1)*n-1]
			named := row
			if last {
				named = nil
			}
			_, skip := fp.SkipTile(env, tile, live, named)
			tile++
			if skip {
				continue
			}
			// Every cell's update is one dependent chain mixing
			// Add/Sub/FMA over five neighbours; batching across cells
			// would reorder the op stream.
			//mixedrelvet:allow batchops dependent per-cell stencil chain
			for c := 1; c < n-1; c++ {
				t := live[n+c]
				// Vertical and horizontal second differences.
				dv := env.Add(live[2*n+c], live[c])
				dv = env.FMA(negTwo, t, dv)
				dh := env.Add(live[n+c+1], live[n+c-1])
				dh = env.FMA(negTwo, t, dh)
				acc := live[3*n+c]
				acc = env.FMA(dv, ry, acc)
				acc = env.FMA(dh, rx, acc)
				acc = env.FMA(env.Sub(tamb, t), rz, acc)
				row[c-1] = env.FMA(k, acc, t)
			}
		}
		cur, next = next, cur
	}
	return res
}

// copyBorder copies the border cells of the n x n grid src to dst.
func copyBorder(dst, src []fp.Bits, n int) {
	copy(dst[:n], src[:n])
	copy(dst[(n-1)*n:], src[(n-1)*n:])
	for r := 1; r < n-1; r++ {
		dst[r*n], dst[r*n+n-1] = src[r*n], src[r*n+n-1]
	}
}
