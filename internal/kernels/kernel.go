// Package kernels implements the paper's six workloads as
// precision-generic computations over an fp.Env:
//
//   - GEMM (the paper's MxM): dense matrix multiply, FMA-dominated
//   - LavaMD: particle-potential kernel (dot products + exp), from Rodinia
//   - LUD: LU decomposition of a diagonally dominant system, from Rodinia
//   - Micro-{ADD,MUL,FMA}: register-resident synthetic op chains
//   - MNIST: a small CNN classifier on procedurally generated digits
//   - YOLO-lite: a YOLO-style convolutional object detector on synthetic
//     scenes
//
// A Kernel carries its own deterministic inputs (generated from a seed at
// construction) and executes entirely through the fp.Env handed to Run,
// so the same kernel code produces the golden output, the op-count
// profile, and — when the Env is an injecting wrapper — the faulty
// output.
package kernels

import (
	"mixedrel/internal/fp"
	"mixedrel/internal/rng"
)

// Kernel is a precision-generic workload.
type Kernel interface {
	// Name returns the workload's short name as used in the paper
	// (e.g. "MxM", "LavaMD").
	Name() string
	// Key returns a string that uniquely identifies this kernel
	// instance's computation — name, shape parameters, and input seed —
	// so fault-free artifacts (goldens, profiles) can be memoized per
	// process. Two kernels with equal keys must produce identical
	// Inputs and Run behavior. An empty key opts the instance out of
	// caching (constructed-by-literal instances without a key are
	// simply recomputed every time).
	Key() string
	// Inputs returns a fresh, caller-owned copy of the kernel's input
	// arrays encoded in format f. Fault injectors may mutate the copy
	// before passing it to Run.
	Inputs(f fp.Format) [][]fp.Bits
	// Run executes the kernel through env on the given inputs and
	// returns its outputs encoded in env's format. Run must not retain
	// or mutate in beyond the call.
	//
	// Run may be aborted mid-flight by a panic from the environment:
	// injecting envs raise emulated crashes/hangs (control-state
	// faults, watchdog, FP traps — see internal/inject), and campaign
	// runners recover them in the execution engine (exec.Guard).
	// Kernels must never recover() themselves — a kernel that swallows
	// the abort would corrupt DUE classification (enforced by the
	// confine analyzer).
	Run(env fp.Env, in [][]fp.Bits) []fp.Bits
}

// OutputKernel is implemented by kernels whose Run can write its output
// into a caller-provided buffer, letting campaign runners reuse one
// output slice across thousands of faulty runs. RunInto behaves exactly
// like Run but writes into out when cap(out) suffices (allocating
// otherwise) and returns the slice actually used; Run(env, in) must be
// equivalent to RunInto(env, in, nil).
//
// A RunInto whose output splits into independent tiles may mark each
// tile with fp.SkipTile(env, t, in, out) and skip the tile's body when
// it reports a skip. Injected runs use this to execute only the tiles a
// fault can reach. in names the tile's live-ins, every value the tile
// reads that an operation computed or an input holds (constants from
// FromFloat64 need no naming), in a fixed order, or nil when there is
// none. A tile may read values computed anywhere before it, since the
// environment compares the live-ins with the fault-free run's (Hotspot:
// each row update names the three grid rows around it and its power
// row; LavaMD: each box pair names a2, both boxes' positions, the
// neighbour's charges and the home box's accumulators; YOLO: each layer
// stage names its input tensor, weights and bias).
//
// SkipTile's out names the tile's outputs outside the output buffer:
// every value the tile writes that is read after it and is not in the
// output buffer, in a fixed order (Hotspot: a row's new cells in the
// next grid; LavaMD: the home box's accumulators a box pair hands the
// next; YOLO: the pooled tensor a stage hands the next), or nil when
// there is none. The fault-free artifact
// build records their values at the next tile's call, so the last tile
// must name none: once RunInto returns, their storage may already be
// reused (exec.Artifact panics otherwise).
//
// On a skip, SkipTile returns the fault-free result of the tile's last
// operation, which the kernel stores where the body would have, the
// named outputs hold their fault-free values, and every value the body
// would write in the output buffer already holds its fault-free value.
// The marking must keep this contract:
//
//   - tiles are called in order 0, 1, ..., n-1 (the fault-free artifact
//     build, exec.Artifact, panics otherwise);
//   - tile t's operations are exactly those between its call and the
//     next tile's call;
//   - no arithmetic follows the last tile;
//   - a tile writes, and initializes, only its own outputs: the result
//     of its last operation, its named outputs, elements of the output
//     buffer, and scratch that nothing reads after it.
type OutputKernel interface {
	Kernel
	RunInto(env fp.Env, in [][]fp.Bits, out []fp.Bits) []fp.Bits
}

// ensureBits returns out resized to n elements, reallocating only when
// the capacity is insufficient. The contents are unspecified.
func ensureBits(out []fp.Bits, n int) []fp.Bits {
	if cap(out) < n {
		return make([]fp.Bits, n)
	}
	return out[:n]
}

// encode converts a float64 slice into format f.
func encode(f fp.Format, xs []float64) []fp.Bits {
	out := make([]fp.Bits, len(xs))
	fp.FromFloat64N(f, out, xs)
	return out
}

// Decode converts raw outputs in format f to float64 for comparison.
func Decode(f fp.Format, bs []fp.Bits) []float64 {
	out := make([]float64, len(bs))
	fp.ToFloat64N(f, out, bs)
	return out
}

// Golden runs k fault-free in format f and returns its output.
func Golden(k Kernel, f fp.Format) []fp.Bits {
	return GoldenWith(k, f, nil)
}

// GoldenWith runs k fault-free in format f with an environment
// transform (e.g. a platform's software exp) applied above the machine.
func GoldenWith(k Kernel, f fp.Format, wrap func(fp.Env) fp.Env) []fp.Bits {
	var env fp.Env = fp.NewMachine(f)
	if wrap != nil {
		env = wrap(env)
	}
	return k.Run(env, k.Inputs(f))
}

// Profile runs k fault-free in format f and returns its dynamic
// operation counts (with Loads/Stores set from the input/output sizes).
func Profile(k Kernel, f fp.Format) fp.OpCounts {
	return ProfileWith(k, f, nil)
}

// ProfileWith profiles k with an environment transform applied above
// the counting layer, so decomposed operations (software
// transcendentals) are counted individually.
func ProfileWith(k Kernel, f fp.Format, wrap func(fp.Env) fp.Env) fp.OpCounts {
	counting := fp.NewCounting(fp.NewMachine(f))
	var env fp.Env = counting
	if wrap != nil {
		env = wrap(env)
	}
	in := k.Inputs(f)
	out := k.Run(env, in)
	for _, arr := range in {
		counting.Counts.Loads += uint64(len(arr))
	}
	counting.Counts.Stores += uint64(len(out))
	return counting.Counts
}

// uniform fills a slice with uniform values in [lo, hi).
func uniform(r *rng.Rand, n int, lo, hi float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*r.Float64()
	}
	return xs
}
