package traceir

import "mixedrel/internal/fp"

// The optimizer pipeline rewrites the recorded region stream without
// ever touching the operation stream itself: a pass may only re-group
// the same dynamic operations under a different region shape, so the
// flat result trace — and every stream position in it — is invariant
// across the pipeline. That is the whole pass-correctness argument:
// serving reads results by absolute position, and positions never
// move.
//
//	passSuperword  adjacent same-kind scalars  -> KMap2 / KMap3
//	passCollapse   adjacent same-kind maps     -> one maximal map
//	finalize       validate coverage, build the Program
//
// Superword merging turns runs of scalar Adds/Muls/FMAs — as emitted
// by kernels that do not use fp.BatchEnv — into the same map regions a
// batch call records, so bulk serving (one slab compare + one copy)
// applies to scalar-coded kernels too. Collapse then widens maps
// across batch-call boundaries, e.g. a kernel that tiles one long
// element-wise update into several AddN calls replays as a single
// region.

// stream is the mutable pass-pipeline representation: the region list
// plus the operand slab the regions index into. Passes rebuild both;
// the result trace and the KGemm tails slab are untouched by
// construction.
type stream struct {
	regions  []Region
	operands []fp.Bits
	tails    []fp.Bits
}

// block returns region r's operand block.
func (s *stream) block(r *Region) []fp.Bits {
	return s.operands[r.Off : int(r.Off)+operandLen(r)]
}

// superwordable reports whether scalar operations of kind op can be
// re-grouped into an existing fp.BatchEnv map shape (AddN / MulN /
// FMAN).
func superwordable(op fp.Op) bool {
	return op == fp.OpAdd || op == fp.OpMul || op == fp.OpFMA
}

// passSuperword merges every maximal run of two or more adjacent
// KScalar regions of one superwordable kind into a single KMap2 (Add,
// Mul) or KMap3 (FMA) region, transposing the per-operation operand
// tuples into the map slab layout.
func passSuperword(s *stream) *stream {
	out := &stream{
		regions:  make([]Region, 0, len(s.regions)),
		operands: make([]fp.Bits, 0, len(s.operands)),
		tails:    s.tails,
	}
	rs := s.regions
	for i := 0; i < len(rs); {
		r := &rs[i]
		if r.Kind != KScalar || !superwordable(r.Op) {
			out.copyRegion(s, r)
			i++
			continue
		}
		j := i + 1
		for j < len(rs) && rs[j].Kind == KScalar && rs[j].Op == r.Op {
			j++
		}
		n := j - i
		if n < 2 {
			out.copyRegion(s, r)
			i++
			continue
		}
		kind := KMap2
		width := 2
		if r.Op == fp.OpFMA {
			kind = KMap3
			width = 3
		}
		off := len(out.operands)
		for lane := 0; lane < width; lane++ {
			for q := i; q < j; q++ {
				out.operands = append(out.operands, s.operands[int(rs[q].Off)+lane])
			}
		}
		out.regions = append(out.regions, Region{
			Kind: kind, Op: r.Op, Start: r.Start, N: uint32(n), Off: uint32(off),
		})
		i = j
	}
	return out
}

// passCollapse merges adjacent map regions of one kind and operation
// into a single maximal region, concatenating their slabs lane by
// lane. (KChain/KAxpy/KGemm regions carry per-region accumulator
// structure and are never merged.)
func passCollapse(s *stream) *stream {
	out := &stream{
		regions:  make([]Region, 0, len(s.regions)),
		operands: make([]fp.Bits, 0, len(s.operands)),
		tails:    s.tails,
	}
	rs := s.regions
	for i := 0; i < len(rs); {
		r := &rs[i]
		if r.Kind != KMap2 && r.Kind != KMap3 {
			out.copyRegion(s, r)
			i++
			continue
		}
		j := i + 1
		total := int(r.N)
		for j < len(rs) && rs[j].Kind == r.Kind && rs[j].Op == r.Op {
			total += int(rs[j].N)
			j++
		}
		if j == i+1 {
			out.copyRegion(s, r)
			i++
			continue
		}
		width := 2
		if r.Kind == KMap3 {
			width = 3
		}
		off := len(out.operands)
		for lane := 0; lane < width; lane++ {
			for q := i; q < j; q++ {
				rq := &rs[q]
				n := int(rq.N)
				out.operands = append(out.operands, s.operands[int(rq.Off)+lane*n:int(rq.Off)+(lane+1)*n]...)
			}
		}
		out.regions = append(out.regions, Region{
			Kind: r.Kind, Op: r.Op, Start: r.Start, N: uint32(total), Off: uint32(off),
		})
		i = j
	}
	return out
}

// copyRegion appends r to out verbatim, relocating its operand block.
func (out *stream) copyRegion(s *stream, r *Region) {
	nr := *r
	nr.Off = uint32(len(out.operands))
	out.operands = append(out.operands, s.block(r)...)
	out.regions = append(out.regions, nr)
}

// finalize validates the optimized stream — regions must tile
// positions [0, ops) exactly, with well-formed shapes and in-bounds
// operand blocks and tails — and builds the executable Program. Any
// violation returns nil: the injector then simply keeps its uncompiled
// replay paths, so a dropped program costs speed, never bits.
func finalize(s *stream, f fp.Format, ops uint64, results []fp.Bits) *Program {
	if uint64(len(results)) != ops {
		return nil
	}
	var pos uint64
	for i := range s.regions {
		r := &s.regions[i]
		if r.Start != pos || r.N == 0 {
			return nil
		}
		if r.Kind == KGemm && (uint64(r.Rows)*uint64(r.Cols)*uint64(r.K) != uint64(r.N) ||
			uint64(r.Tail)+uint64(r.Rows)*uint64(r.Cols) > uint64(len(s.tails))) {
			return nil
		}
		if int(r.Off)+operandLen(r) > len(s.operands) {
			return nil
		}
		pos += uint64(r.N)
	}
	if pos != ops {
		return nil
	}
	return &Program{
		format:   f,
		ops:      ops,
		regions:  s.regions,
		operands: s.operands,
		results:  results,
		tails:    s.tails,
	}
}
