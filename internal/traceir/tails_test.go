package traceir

import (
	"fmt"
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
)

// TestGemmTailsMatchResults records real kernels that issue GemmFMA
// grids and requires every compiled grid's tails to be its chains'
// final accumulators, results[Start+t*k+k-1], and GemmTails to hand back
// exactly that slice for any chain range.
func TestGemmTailsMatchResults(t *testing.T) {
	cases := []kernels.Kernel{
		kernels.NewGEMM(6, 1),
		kernels.NewMNIST(1, 2),
		kernels.NewYOLO(3),
		kernels.NewCG(6, 3, 4),
	}
	for _, k := range cases {
		for _, f := range []fp.Format{fp.Half, fp.Single} {
			t.Run(fmt.Sprintf("%s/%v", k.Name(), f), func(t *testing.T) {
				rec := NewRecorder(fp.NewMachine(f))
				k.Run(rec, k.Inputs(f))
				p := rec.Compile()
				if p == nil {
					t.Fatal("Compile returned nil")
				}
				grids := 0
				for _, r := range p.regions {
					if r.Kind != KGemm {
						continue
					}
					grids++
					rows, cols, kk := int(r.Rows), int(r.Cols), int(r.K)
					for c := 0; c < rows*cols; c++ {
						want := p.results[r.Start+uint64(c*kk+kk-1)]
						if got := p.tails[int(r.Tail)+c]; got != want {
							t.Fatalf("grid at %d: tail %d = %#x, result %#x", r.Start, c, got, want)
						}
					}
					var cur Cursor
					first, limit := rows*cols/3, rows*cols-1
					got, ok := p.GemmTails(&cur, r.Start+uint64(first*kk), rows, cols, kk, first, limit)
					if !ok || len(got) != limit-first {
						t.Fatalf("grid at %d: GemmTails [%d,%d) ok=%v len %d", r.Start, first, limit, ok, len(got))
					}
					for c := range got {
						if got[c] != p.tails[int(r.Tail)+first+c] {
							t.Fatalf("grid at %d: GemmTails[%d] mismatch", r.Start, c)
						}
					}
					if _, ok := p.GemmTails(&cur, r.Start+1, rows, cols, kk, first, limit); ok {
						t.Fatalf("grid at %d: misaligned GemmTails accepted", r.Start)
					}
				}
				if grids == 0 {
					t.Fatal("kernel recorded no GemmFMA grid")
				}
			})
		}
	}
}

// allChainsServeGemm is the reference ServeGemm: it tests every chain of
// the range against the dirty row and column intervals, serving clean
// chains from the strided result trace and recomputing dirty ones with
// their served prefix, and counts the recomputed operations.
func allChainsServeGemm(p *Program, pos uint64, out, accs, a, bt []fp.Bits, rows, cols, k, first, limit int, inner fp.Env) uint64 {
	var cur Cursor
	ri, _ := p.find(&cur, pos)
	r := &p.regions[ri]
	ops := p.operands[r.Off:]
	var rowLo, rowHi int
	if accs == nil {
		rowLo, rowHi = mismatch(make([]fp.Bits, rows), ops[:rows])
	} else {
		rowLo, rowHi = mismatch(accs[:rows], ops[:rows])
	}
	alo, ahi := mismatch(a[:rows*k], ops[rows:rows+rows*k])
	rowLo, rowHi = union(rowLo, rowHi, alo/k, (ahi+k-1)/k)
	btlo, bthi := mismatch(bt[:cols*k], ops[rows+rows*k:rows+rows*k+cols*k])
	colLo, colHi := btlo/k, (bthi+k-1)/k
	var recomputed uint64
	for t := first; t < limit; t++ {
		i, j := t/cols, t%cols
		if (i >= rowLo && i < rowHi) || (j >= colLo && j < colHi) {
			var acc fp.Bits
			if accs != nil {
				acc = accs[i]
			}
			ca, cb := a[i*k:(i+1)*k], bt[j*k:j*k+k]
			acc, srv := p.ChainPrefix(&cur, r.Start+uint64(t*k), acc, ca, cb)
			if srv < k {
				acc = fp.DotFMA(inner, acc, ca[srv:], cb[srv:])
			}
			recomputed += uint64(k - srv)
			out[t] = acc
		} else {
			out[t] = p.results[r.Start+uint64(t*k+k-1)]
		}
	}
	return recomputed
}

// TestServeGemmDirtyOnlyMatchesAllChains corrupts random rows, columns
// and accumulators of recorded grids and requires the dirty-only
// ServeGemm to agree with the all-chains reference on every output and
// on the recomputed-operation count, for random chain ranges served in
// sequence through one cursor (so the slab-compare cache is exercised).
func TestServeGemmDirtyOnlyMatchesAllChains(t *testing.T) {
	r := rng.New(0x7A11)
	for trial := 0; trial < 300; trial++ {
		f := []fp.Format{fp.Half, fp.Single, fp.Double}[trial%3]
		rows, cols, k := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(4)
		withAccs := trial%2 == 0
		var accs, a, bt []fp.Bits
		p, m := compile(t, f, func(m fp.Env, rec *Recorder) {
			a = seq(m, float64(1+trial%7)/8, rows*k)
			bt = seq(m, float64(3+trial%5)/4, cols*k)
			if withAccs {
				accs = seq(m, 2, rows)
			}
			rec.GemmFMA(make([]fp.Bits, rows*cols), accs, a, bt, rows, cols, k)
		})
		ca := append([]fp.Bits(nil), a...)
		cbt := append([]fp.Bits(nil), bt...)
		var caccs []fp.Bits
		if withAccs {
			caccs = append([]fp.Bits(nil), accs...)
		}
		for c := r.Intn(4); c > 0; c-- {
			switch r.Intn(3) {
			case 0:
				ca[r.Intn(len(ca))] ^= 1 << uint(r.Intn(f.Width()))
			case 1:
				cbt[r.Intn(len(cbt))] ^= 1 << uint(r.Intn(f.Width()))
			default:
				if withAccs {
					caccs[r.Intn(rows)] ^= 1 << uint(r.Intn(f.Width()))
				}
			}
		}
		var cur Cursor
		for first := 0; first < rows*cols; {
			limit := first + 1 + r.Intn(rows*cols-first)
			pos := uint64(first * k)
			got := make([]fp.Bits, rows*cols)
			want := make([]fp.Bits, rows*cols)
			gotRe, ok := p.ServeGemm(&cur, pos, got, caccs, ca, cbt, rows, cols, k, first, limit, m)
			if !ok {
				t.Fatalf("trial %d: ServeGemm rejected [%d,%d)", trial, first, limit)
			}
			wantRe := allChainsServeGemm(p, pos, want, caccs, ca, cbt, rows, cols, k, first, limit, m)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %dx%dx%d [%d,%d): out[%d] = %#x, reference %#x",
						trial, rows, cols, k, first, limit, i, got[i], want[i])
				}
			}
			if gotRe != wantRe {
				t.Fatalf("trial %d %dx%dx%d [%d,%d): recomputed %d, reference %d",
					trial, rows, cols, k, first, limit, gotRe, wantRe)
			}
			first = limit
		}
	}
}
