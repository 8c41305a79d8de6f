package traceir

import (
	"fmt"
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
)

// TestFindMatchesLinearScan checks the galloping region lookup against
// a linear walk of the region stream, at every position of compiled
// LavaMD and LUD programs (plus a few past the end), from random
// cursors — so positions before, at and far beyond the cursor's region
// all occur — and along a random forward walk with occasional
// backward jumps, the access pattern of a replay.
func TestFindMatchesLinearScan(t *testing.T) {
	for _, k := range []kernels.Kernel{kernels.NewLavaMD(2, 4, 3), kernels.NewLUD(32, 2)} {
		for _, f := range []fp.Format{fp.Half, fp.Double} {
			t.Run(fmt.Sprintf("%s/%v", k.Name(), f), func(t *testing.T) {
				rec := NewRecorder(fp.NewMachine(f))
				k.Run(rec, k.Inputs(f))
				p := rec.Compile()
				rs := p.Regions()
				if len(rs) < 1000 {
					t.Fatalf("only %d regions: too few to exercise the gallop", len(rs))
				}
				want := make([]int, p.Ops()+3)
				for i := range want {
					want[i] = -1
				}
				for i := range rs {
					for pos := rs[i].Start; pos < rs[i].Start+uint64(rs[i].N); pos++ {
						want[pos] = i
					}
				}
				check := func(c *Cursor, pos uint64, from int) {
					t.Helper()
					got, ok := p.find(c, pos)
					if w := want[pos]; ok != (w >= 0) || ok && got != w {
						t.Fatalf("find(pos %d) from cursor %d = %d, %v; linear scan finds %d", pos, from, got, ok, w)
					}
					if ok && c.rgn != got {
						t.Fatalf("find(pos %d) left the cursor at %d, not at region %d", pos, c.rgn, got)
					}
				}

				r := rng.New(uint64(len(rs)))
				for pos := range want {
					from := r.Intn(len(rs) + 1)
					check(&Cursor{rgn: from}, uint64(pos), from)
				}

				var c Cursor
				pos := uint64(0)
				for step := 0; step < 4*len(want); step++ {
					switch r.Intn(8) {
					case 0:
						pos = r.Uint64n(uint64(len(want))) // jump anywhere, often backward
					case 1:
						pos += r.Uint64n(512) // skip many regions
					default:
						pos += r.Uint64n(4)
					}
					if pos >= uint64(len(want)) {
						pos = 0
					}
					check(&c, pos, c.rgn)
				}
			})
		}
	}
}
