// Package traceir compiles the fault-free execution trace of one
// (kernel, format, wrap) configuration into a compact op-stream IR, and
// serves faulty replays from it.
//
// The injector re-executes a kernel once per fault sample; before the
// fault strikes, and in every part of the stream the fault never
// reaches, the sample's operations are bit-identical to the fault-free
// run's. The IR makes both facts cheap to exploit:
//
//   - a Recorder captures the golden run once as a sequence of regions
//     and the flat trace of every operation's result bits. Operands are
//     kept only where the injector compare-serves: the expensive scalar
//     kinds (ScalarServed: Div, Sqrt, Exp) one region each, and FMA
//     chains, AXPY updates and GEMM grids one region per batch call.
//     Every other scalar operation only extends an operand-free run
//     region. The recorded stream is the executable Program as is;
//     Compile only validates it;
//   - the Program's Serve* methods answer "is this operation (or whole
//     region) bit-identical to the recorded run?" by comparing the live
//     operand bits against the recorded ones, and hand back recorded
//     results for the fault-independent parts so only the
//     fault-dependent cone re-executes through softfloat.
//
// Soundness does not rest on any dataflow guess: an Env operation's
// result is a pure function of (operation kind, operand bits, format),
// so serving a recorded result after an operand-bits match is exact by
// construction — even if control flow diverged and the stream position
// no longer means what it meant in the golden run. Position-based
// serving *without* an operand compare is only ever done by the
// injector under its replay induction (no corruption applied yet), not
// by this package.
//
// The compiled replay path is reachable only from internal/inject (and
// the recording side from internal/exec); the confine analyzer in
// internal/analysis enforces that statically, keeping the
// bit-exactness argument reviewable in one place.
package traceir

import "mixedrel/internal/fp"

// Kind discriminates the region shapes of the IR. Each shape mirrors
// what the injector observes at replay time: one served scalar fp.Env
// call, a stretch of scalar calls it never serves, or one fp.BatchEnv
// call.
type Kind uint8

const (
	// KScalar is a single scalar operation of a ScalarServed kind.
	KScalar Kind = iota
	// KRun is a maximal stretch of scalar operations of the other kinds
	// (Add, Sub, Mul, FMA), recorded without operands: the injector
	// never compare-serves them one by one, so only their results are
	// kept. A run never crosses a KScalar operation or a batch region.
	KRun
	// KChain is a serial FMA chain (DotFMA): operation i consumes the
	// accumulator produced by operation i-1.
	KChain
	// KAxpy is an AXPY update: dst[i] = FMA(s, x[i], dst[i]) with a
	// broadcast scalar and per-element accumulators.
	KAxpy
	// KGemm is a GemmFMA grid: Rows x Cols independent chains of
	// length K against row slabs of a and chain slabs of bt.
	KGemm
)

func (k Kind) String() string {
	switch k {
	case KScalar:
		return "scalar"
	case KRun:
		return "run"
	case KChain:
		return "chain"
	case KAxpy:
		return "axpy"
	case KGemm:
		return "gemm"
	}
	return "kind?"
}

// Region is one segment of the dynamic operation stream. Its operand
// block lives at Program.operands[Off:]; its results are
// Program.results[Start : Start+N] (the flat result trace is shared
// with the injector's replay slice). A KGemm region's chain results —
// the only values that leave the grid — are also stored contiguously at
// Program.tails[Tail : Tail+Rows*Cols], row-major.
//
// Operand-block layouts (n = N, k = K):
//
//	KScalar  operands of the op in call order (arity(Op) values)
//	KRun     none
//	KChain   acc0, a[n], b[n]
//	KAxpy    s, x[n], d[n]           (d = the accumulator inputs)
//	KGemm    accs[Rows], a[Rows*k], bt[Cols*k]
type Region struct {
	Kind  Kind
	Op    fp.Op  // the operation of a KScalar, OpFMA for batches; unset for KRun
	Start uint64 // first dynamic stream position
	N     uint32 // dynamic operation count
	Off   uint32 // operand-block offset into Program.operands
	// Rows, Cols, K describe the KGemm grid (Rows*Cols*K == N), and
	// Tail is the offset of its chain results in Program.tails; all
	// zero for every other kind.
	Rows, Cols, K, Tail uint32
}

// contains reports whether stream position pos falls inside r.
func (r *Region) contains(pos uint64) bool {
	return pos >= r.Start && pos-r.Start < uint64(r.N)
}

// ScalarServed reports whether scalar operations of kind op are
// recorded with their operands and compare-served one by one: a hit on
// the expensive iterative routines (Div, Sqrt, Exp) saves far more than
// the region lookup and operand compare it costs. For the cheap
// softfloat operations (Add, Sub, Mul, FMA) a hit is roughly break-even
// — the lookup costs about as much as the decode/compute/round it skips
// — so they are neither served nor given operands (KRun). Batch regions
// amortize one lookup over a whole call and are served for every shape.
// This one rule decides both what the Recorder keeps and what the
// injector asks ServeScalar for.
func ScalarServed(op fp.Op) bool {
	switch op {
	case fp.OpDiv, fp.OpSqrt, fp.OpExp:
		return true
	}
	return false
}

// arity returns the operand count of a scalar operation of kind op.
func arity(op fp.Op) int {
	switch op {
	case fp.OpFMA:
		return 3
	case fp.OpSqrt, fp.OpExp:
		return 1
	}
	return 2
}

// operandLen returns the operand-block length of r.
func operandLen(r *Region) int {
	n := int(r.N)
	switch r.Kind {
	case KScalar:
		return arity(r.Op)
	case KChain, KAxpy:
		return 2*n + 1
	case KGemm:
		return int(r.Rows) + int(r.Rows)*int(r.K) + int(r.Cols)*int(r.K)
	}
	return 0
}

// Program is the compiled golden trace: the recorded region stream
// plus the flat operand, result and GEMM chain-tail bit arrays. A
// Program is immutable after Compile and safe for concurrent use;
// per-run state lives in the caller's Cursor.
type Program struct {
	format   fp.Format
	ops      uint64
	regions  []Region
	operands []fp.Bits
	results  []fp.Bits
	tails    []fp.Bits
}

// Ops returns the dynamic operation count of the recorded stream.
func (p *Program) Ops() uint64 { return p.ops }

// Format returns the format the program was recorded in.
func (p *Program) Format() fp.Format { return p.format }

// Results returns the flat per-operation result trace (element i is
// the bits produced by dynamic operation i). Shared; do not mutate.
func (p *Program) Results() []fp.Bits { return p.results }

// Regions exposes the region stream for tests and dumps.
// Shared; do not mutate.
func (p *Program) Regions() []Region { return p.regions }

// Cursor carries one replay's region-lookup state. Stream positions
// are queried in (mostly) increasing order, so remembering the last
// region makes the common lookup O(1).
type Cursor struct {
	rgn int

	// Cached ServeGemm slab-compare result for region gemmRgn-1 (zero
	// means no cache). Valid because a region's operand arrays cannot
	// change between the range-serves of one grid (they are the batch
	// call's own read-only inputs), and stream positions advance
	// monotonically, so one region is never revisited with different
	// arrays within a run. Callers reset the Cursor per run.
	gemmRgn                    int
	rowLo, rowHi, colLo, colHi int
}

// find locates the region containing pos and moves the cursor to it.
// Positions advance near-monotonically within a run, but not every
// operation consults the program (only ScalarServed kinds and batches
// do), so the next lookup may land any number of regions past the
// cursor.
// The search therefore gallops forward from the cursor — probing 1, 2,
// 4, ... regions ahead until one starts past pos — and binary-searches
// inside that bracket: the cursor's own region costs two probes, and a
// skip of d regions O(log d). A position before the cursor
// binary-searches the prefix.
//
//mixedrelvet:hotpath region lookup behind every compare-serve
func (p *Program) find(c *Cursor, pos uint64) (int, bool) {
	rs := p.regions
	if pos >= p.ops || len(rs) == 0 {
		return 0, false
	}
	// Search [lo, hi) for the first region starting past pos; the one
	// before it is the only candidate.
	lo, hi := 0, len(rs)
	if i := c.rgn; i < len(rs) {
		if rs[i].Start > pos {
			hi = i
		} else {
			lo = i + 1
			for step := 1; ; step *= 2 {
				j := i + step
				if j >= len(rs) {
					break
				}
				if rs[j].Start > pos {
					hi = j
					break
				}
				lo = j + 1
			}
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid].Start > pos {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo - 1
	if i >= 0 && rs[i].contains(pos) {
		c.rgn = i
		return i, true
	}
	return 0, false
}

// ServeScalar serves the ScalarServed operation at stream position pos
// when the recorded operation there is of the same kind with the same
// operand bits, returning the recorded result. A false return means the
// operation is inside the fault-dependent cone, or the position holds
// anything but a recorded KScalar (a run, a batch region, or past the
// recorded stream), and it must be recomputed. Unused operand slots are
// ignored per the operation's arity.
//
//mixedrelvet:hotpath compiled-trace compare-serving, one call per golden operation
func (p *Program) ServeScalar(cur *Cursor, pos uint64, op fp.Op, a, b, c fp.Bits) (fp.Bits, bool) {
	ri, ok := p.find(cur, pos)
	if !ok {
		return 0, false
	}
	r := &p.regions[ri]
	if r.Kind != KScalar || r.Op != op {
		return 0, false
	}
	ops := p.operands[r.Off:]
	switch arity(op) {
	case 1:
		if ops[0] != a {
			return 0, false
		}
	case 2:
		if ops[0] != a || ops[1] != b {
			return 0, false
		}
	default:
		if ops[0] != a || ops[1] != b || ops[2] != c {
			return 0, false
		}
	}
	return p.results[pos], true
}

// ChainPrefix serves the longest fault-independent prefix of the FMA
// chain starting at stream position pos: it returns the accumulator
// after the first i chain elements and the element count i served. The
// caller re-executes elements i..len(a)-1 through softfloat (i ==
// len(a) means the whole chain was served; i == 0 means nothing
// matched and acc passes through unchanged). Chains are resolved
// against KChain regions and against chain-aligned interiors of KGemm
// grids.
//
//mixedrelvet:hotpath compiled-trace compare-serving, one call per golden operation
func (p *Program) ChainPrefix(cur *Cursor, pos uint64, acc fp.Bits, a, b []fp.Bits) (fp.Bits, int) {
	n := len(a)
	if n == 0 {
		return acc, 0
	}
	ri, ok := p.find(cur, pos)
	if !ok {
		return acc, 0
	}
	r := &p.regions[ri]
	var racc fp.Bits
	var ra, rb []fp.Bits
	switch r.Kind {
	case KChain:
		if pos != r.Start || n != int(r.N) {
			return acc, 0
		}
		ops := p.operands[r.Off:]
		racc = ops[0]
		ra = ops[1 : 1+n]
		rb = ops[1+n : 1+2*n]
	case KGemm:
		i := pos - r.Start
		k := uint64(r.K)
		if n != int(k) || i%k != 0 {
			return acc, 0
		}
		chain := i / k
		row, col := chain/uint64(r.Cols), chain%uint64(r.Cols)
		ops := p.operands[r.Off:]
		racc = ops[row]
		aOff := uint64(r.Rows) + row*k
		btOff := uint64(r.Rows) + uint64(r.Rows)*k + col*k
		ra = ops[aOff : aOff+k]
		rb = ops[btOff : btOff+k]
	default:
		return acc, 0
	}
	if acc != racc {
		return acc, 0
	}
	for i := 0; i < n; i++ {
		if a[i] != ra[i] || b[i] != rb[i] {
			if i == 0 {
				return acc, 0
			}
			return p.results[pos+uint64(i)-1], i
		}
	}
	return p.results[pos+uint64(n)-1], n
}

// mismatch returns the half-open dirty interval [lo, hi) of indices
// where live differs from rec; lo == hi means the slices are
// bit-identical. The interval form is deliberately coarse — covering
// scattered mismatches costs extra recomputation, never correctness.
func mismatch(live, rec []fp.Bits) (lo, hi int) {
	n := len(live)
	for lo = 0; lo < n; lo++ {
		if live[lo] != rec[lo] {
			break
		}
	}
	if lo == n {
		return 0, 0
	}
	for hi = n; hi > lo; hi-- {
		if live[hi-1] != rec[hi-1] {
			break
		}
	}
	return lo, hi
}

// ServeAxpy partitions the AXPY batch at stream position pos into the
// fault-independent part and the dirty interval [lo, hi), which the
// caller must recompute: dst is both the per-element accumulator input
// and the output. Clean elements are served from the recorded results;
// the dirty interval keeps its accumulator inputs for the recompute. A
// false ok means the region shape did not match and the caller must
// recompute the whole batch. A corrupted broadcast scalar s
// dirties every element, reported as a full-range interval.
//
//mixedrelvet:hotpath compiled-trace compare-serving, one call per golden operation
func (p *Program) ServeAxpy(cur *Cursor, pos uint64, s fp.Bits, x, dst []fp.Bits) (lo, hi int, ok bool) {
	n := len(x)
	ri, found := p.find(cur, pos)
	if !found {
		return 0, 0, false
	}
	r := &p.regions[ri]
	i := int(pos - r.Start)
	if r.Kind != KAxpy || i+n > int(r.N) {
		return 0, 0, false
	}
	rn := int(r.N)
	ops := p.operands[r.Off:]
	if ops[0] != s {
		return 0, n, true
	}
	xlo, xhi := mismatch(x, ops[1+i:1+i+n])
	dlo, dhi := mismatch(dst, ops[1+rn+i:1+rn+i+n])
	lo, hi = union(xlo, xhi, dlo, dhi)
	res := p.results[pos : pos+uint64(n)]
	copy(dst[:lo], res[:lo])
	copy(dst[hi:n], res[hi:])
	return lo, hi, true
}

// gemmRegion returns the index of the KGemm region whose chain first
// starts at stream position pos, provided it records a rows x cols x k
// grid and [first, limit) is a chain range of it.
func (p *Program) gemmRegion(cur *Cursor, pos uint64, rows, cols, k, first, limit int) (int, bool) {
	ri, found := p.find(cur, pos)
	if !found {
		return 0, false
	}
	r := &p.regions[ri]
	if r.Kind != KGemm || pos != r.Start+uint64(first)*uint64(k) ||
		int(r.Rows) != rows || int(r.Cols) != cols || int(r.K) != k ||
		first < 0 || first > limit || limit > rows*cols {
		return 0, false
	}
	return ri, true
}

// GemmTails returns the recorded final accumulators of chains
// [first, limit) of the GemmFMA grid whose chain first starts at stream
// position pos: one contiguous slice of the tails slab, element t-first
// being results[Start+t*k+k-1]. A false return means no grid of that
// shape is recorded there. Shared; do not mutate.
func (p *Program) GemmTails(cur *Cursor, pos uint64, rows, cols, k, first, limit int) ([]fp.Bits, bool) {
	ri, ok := p.gemmRegion(cur, pos, rows, cols, k, first, limit)
	if !ok {
		return nil, false
	}
	t := int(p.regions[ri].Tail)
	return p.tails[t+first : t+limit], true
}

// ServeGemm serves the chains [first, limit) of a GemmFMA grid — pos is
// the stream position of chain first's initial operation — into
// out[first:limit]: the whole range is copied from the grid's recorded
// tails, then the fault-dependent chains are recomputed as DotFMA chains
// through inner. Dirtiness is resolved at slab granularity: one compare
// of the live a, bt and accumulator slabs against the recorded operand
// bits yields dirty row and chain-column intervals, and only the chains
// in those rows and columns are visited. recomputed is the number of
// operations re-executed through inner (a dirty chain still serves its
// operand-matching prefix). The range form lets the injector bulk-serve
// everything around a gated chain. A false ok means the region shape
// did not match and the caller must recompute the chains itself.
//
//mixedrelvet:hotpath compiled-trace compare-serving, one call per golden operation
func (p *Program) ServeGemm(cur *Cursor, pos uint64, out, accs, a, bt []fp.Bits, rows, cols, k, first, limit int, inner fp.Env) (recomputed uint64, ok bool) {
	ri, ok := p.gemmRegion(cur, pos, rows, cols, k, first, limit)
	if !ok {
		return 0, false
	}
	r := &p.regions[ri]
	var rowLo, rowHi, colLo, colHi int
	if cur.gemmRgn == ri+1 {
		rowLo, rowHi = cur.rowLo, cur.rowHi
		colLo, colHi = cur.colLo, cur.colHi
	} else {
		ops := p.operands[r.Off:]
		accSlab := ops[:rows]
		aSlab := ops[rows : rows+rows*k]
		btSlab := ops[rows+rows*k : rows+rows*k+cols*k]
		if accs == nil {
			// A nil accs means every chain starts from FromFloat64(0),
			// whose encoding is all-zero bits in every format; any
			// recorded accumulator that is not +0 marks its row dirty.
			lo, hi := 0, rows
			for lo < rows && accSlab[lo] == 0 {
				lo++
			}
			for hi > lo && accSlab[hi-1] == 0 {
				hi--
			}
			rowLo, rowHi = lo, hi
		} else {
			rowLo, rowHi = mismatch(accs[:rows], accSlab)
		}
		alo, ahi := mismatch(a[:rows*k], aSlab)
		rowLo, rowHi = union(rowLo, rowHi, alo/k, (ahi+k-1)/k)
		btlo, bthi := mismatch(bt[:cols*k], btSlab)
		colLo, colHi = btlo/k, (bthi+k-1)/k
		cur.gemmRgn = ri + 1
		cur.rowLo, cur.rowHi = rowLo, rowHi
		cur.colLo, cur.colHi = colLo, colHi
	}

	t0 := int(r.Tail)
	copy(out[first:limit], p.tails[t0+first:t0+limit])
	if rowLo == rowHi && colLo == colHi {
		// No dirty interval — the fault never reached this grid's
		// operands (an operation fault corrupts a value in flight, not
		// the arrays), so every chain serves from the trace.
		return 0, true
	}
	// Rows [iLo, iHi) hold the range's chains. Every chain of a dirty
	// row recomputes; a dirty column recomputes in the remaining rows.
	iLo, iHi := first/cols, (limit-1)/cols+1
	for i := max(rowLo, iLo); i < min(rowHi, iHi); i++ {
		for t := max(first, i*cols); t < min(limit, (i+1)*cols); t++ {
			recomputed += p.recomputeChain(cur, r, out, accs, a, bt, cols, t, inner)
		}
	}
	for i := iLo; i < iHi && colLo < colHi; i++ {
		if i >= rowLo && i < rowHi {
			continue
		}
		for t := max(first, i*cols+colLo); t < min(limit, i*cols+colHi); t++ {
			recomputed += p.recomputeChain(cur, r, out, accs, a, bt, cols, t, inner)
		}
	}
	return recomputed, true
}

// recomputeChain recomputes chain t of the KGemm grid r into out[t] and
// returns the number of operations it re-executed through inner: the
// chain's own prefix up to its first corrupted element still matches
// the recorded stream, so only the suffix the corruption reaches runs.
func (p *Program) recomputeChain(cur *Cursor, r *Region, out, accs, a, bt []fp.Bits, cols, t int, inner fp.Env) uint64 {
	k := int(r.K)
	i, j := t/cols, t%cols
	var acc fp.Bits
	if accs != nil {
		acc = accs[i]
	}
	ca, cb := a[i*k:(i+1)*k], bt[j*k:j*k+k]
	acc, srv := p.ChainPrefix(cur, r.Start+uint64(t)*uint64(k), acc, ca, cb)
	if srv < k {
		acc = fp.DotFMA(inner, acc, ca[srv:], cb[srv:])
	}
	out[t] = acc
	return uint64(k - srv)
}

// union merges two half-open intervals into the smallest interval
// covering both; empty intervals (lo == hi) are identities.
func union(alo, ahi, blo, bhi int) (int, int) {
	if alo == ahi {
		return blo, bhi
	}
	if blo == bhi {
		return alo, ahi
	}
	if blo < alo {
		alo = blo
	}
	if bhi > ahi {
		ahi = bhi
	}
	return alo, ahi
}

// finalize validates a recorded program — regions must tile positions
// [0, ops) exactly, with well-formed shapes and in-bounds operand blocks
// and tails, and the result trace must hold one entry per operation —
// and returns it, or nil on any violation: the injector then simply
// keeps its uncompiled replay paths, so a dropped program costs speed,
// never bits.
func finalize(p *Program) *Program {
	if uint64(len(p.results)) != p.ops {
		return nil
	}
	var pos uint64
	for i := range p.regions {
		r := &p.regions[i]
		if r.Start != pos || r.N == 0 {
			return nil
		}
		if r.Kind == KGemm && (uint64(r.Rows)*uint64(r.Cols)*uint64(r.K) != uint64(r.N) ||
			uint64(r.Tail)+uint64(r.Rows)*uint64(r.Cols) > uint64(len(p.tails))) {
			return nil
		}
		if int(r.Off)+operandLen(r) > len(p.operands) {
			return nil
		}
		pos += uint64(r.N)
	}
	if pos != p.ops {
		return nil
	}
	return p
}
