package exec

import (
	"sync"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/traceir"
)

// Artifacts bundles the memoized fault-free products of one
// (kernel, format, wrap) configuration: the dynamic operation profile,
// the golden output (raw and decoded), and the pristine encoded inputs.
// All slices returned by accessors other than CopyInputs are
// shared and must be treated as immutable.
type Artifacts struct {
	// Counts is the dynamic operation profile with the wrap applied,
	// Loads/Stores included — exactly kernels.ProfileWith's result.
	Counts fp.OpCounts

	golden  []fp.Bits
	decoded []float64
	inputs  [][]fp.Bits
	lens    []int
	results []fp.Bits
	prog    *traceir.Program
	tiles   *TileTable
}

// GoldenBits returns the fault-free output in the configuration's
// format. Shared; do not mutate.
func (a *Artifacts) GoldenBits() []fp.Bits { return a.golden }

// Golden returns the decoded fault-free output. Shared; do not mutate.
func (a *Artifacts) Golden() []float64 { return a.decoded }

// ArrayLens returns the input array lengths (for memory-fault
// sampling). Shared; do not mutate.
func (a *Artifacts) ArrayLens() []int { return a.lens }

// Results returns the per-operation result trace of the fault-free run:
// element i is the bits produced by the i-th dynamic arithmetic
// operation (post-wrap order). Until a fault is applied, a faulty run's
// operations see bit-identical operands, so injectors replay this trace
// instead of recomputing the pre-fault prefix. Nil when the kernel
// exceeds the recording cap. Shared; do not mutate.
func (a *Artifacts) Results() []fp.Bits { return a.results }

// Prog returns the compiled trace program for the configuration — the
// region IR over the same result trace Results() exposes —
// or nil when the execution overflowed the compilation cap. Immutable
// and safe for concurrent replays.
func (a *Artifacts) Prog() *traceir.Program { return a.prog }

// Tiles returns the output tile table of the fault-free run, or nil
// when the kernel is no OutputKernel, marks no tiles, or its result
// trace (which the table reads tile results from) was dropped. Shared
// and safe for concurrent use.
func (a *Artifacts) Tiles() *TileTable { return a.tiles }

// CopyInputs fills dst with the kernel's pristine encoded inputs,
// reusing dst's backing arrays where they fit, and returns it. This is
// the scratch-buffer path of fault injection: campaigns hold one dst per
// worker so repeated runs re-encode nothing and allocate nothing.
func (a *Artifacts) CopyInputs(dst [][]fp.Bits) [][]fp.Bits {
	if cap(dst) < len(a.inputs) {
		dst = make([][]fp.Bits, len(a.inputs))
	}
	dst = dst[:len(a.inputs)]
	for i, src := range a.inputs {
		if cap(dst[i]) < len(src) {
			dst[i] = make([]fp.Bits, len(src))
		}
		dst[i] = dst[i][:len(src)]
		copy(dst[i], src)
	}
	return dst
}

// cacheKey identifies one cached configuration.
type cacheKey struct {
	kernel string
	format fp.Format
	wrap   string
}

// cacheSlot guarantees the artifacts of one key are computed exactly
// once even under concurrent first access.
type cacheSlot struct {
	once sync.Once
	art  *Artifacts
}

var cacheMap sync.Map // cacheKey -> *cacheSlot

// Artifact returns the memoized fault-free artifacts for (k, f, wrap).
// wrapKey must uniquely identify wrap's arithmetic behavior (empty for a
// nil wrap); the cache key is (k.Key(), f, wrapKey). Configurations that
// cannot be identified — k.Key() empty, or a non-nil wrap with an empty
// wrapKey — are computed uncached, so correctness never depends on key
// discipline. Safe for concurrent use; each configuration is executed at
// most once per process.
func Artifact(k kernels.Kernel, f fp.Format, wrapKey string, wrap func(fp.Env) fp.Env) *Artifacts {
	kk := k.Key()
	if kk == "" || (wrap != nil && wrapKey == "") {
		mArtifactUncached.Inc()
		return compute(k, f, wrap)
	}
	if wrap == nil {
		wrapKey = ""
	}
	mArtifactLookups.Inc()
	v, _ := cacheMap.LoadOrStore(cacheKey{kernel: kk, format: f, wrap: wrapKey}, &cacheSlot{})
	slot := v.(*cacheSlot)
	slot.once.Do(func() {
		mArtifactComputes.Inc()
		slot.art = compute(k, f, wrap)
	})
	return slot.art
}

// ResetCache drops every memoized artifact. Intended for tests that
// measure cold-path behavior.
func ResetCache() {
	cacheMap.Range(func(key, _ any) bool {
		cacheMap.Delete(key)
		mArtifactEvictions.Inc()
		return true
	})
}

// compute executes the kernel once through a counting environment over
// a trace recorder, yielding profile, golden output, the per-operation
// result trace, and the compiled trace program from a single
// fault-free run (fp.Counting and traceir.Recorder delegate arithmetic
// unchanged, so the counted run's output is bit-identical to
// kernels.GoldenWith's). The recorder sits below fp.Counting — the
// same stream position an injecting environment occupies in a faulty
// run — so trace index i is exactly the i-th operation an injector
// observes, and each recorded batch call is the batch call the
// injector sees.
func compute(k kernels.Kernel, f fp.Format, wrap func(fp.Env) fp.Env) *Artifacts {
	in := k.Inputs(f)
	// Keep a pristine copy: the Kernel contract forbids Run from
	// mutating in, but artifacts outlive the process-local call and a
	// defensive copy is a one-time cost per configuration.
	pristine := make([][]fp.Bits, len(in))
	lens := make([]int, len(in))
	for i, arr := range in {
		pristine[i] = append([]fp.Bits(nil), arr...)
		lens[i] = len(arr)
	}

	rec := traceir.NewRecorder(fp.NewMachine(f))
	counting := fp.NewCounting(rec)
	var tiles *tileBuilder
	if _, ok := k.(kernels.OutputKernel); ok {
		// Any other kernel gets no table: it may run a tiled kernel
		// inside (mitigate.TMR runs three), but nothing can skip its
		// tiles.
		tiles = &tileBuilder{kernel: k.Name()}
		counting.Tiles = tiles
	}
	var env fp.Env = counting
	if wrap != nil {
		env = wrap(env)
	}
	out := k.Run(env, in)
	counts := counting.Counts
	results := rec.Results()
	for _, arr := range in {
		counts.Loads += uint64(len(arr))
	}
	counts.Stores += uint64(len(out))

	return &Artifacts{
		Counts:  counts,
		golden:  out,
		decoded: kernels.Decode(f, out),
		inputs:  pristine,
		lens:    lens,
		results: results,
		prog:    rec.Compile(),
		tiles:   tiles.table(f, &counting.Counts, results),
	}
}
