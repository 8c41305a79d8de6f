package exec

import (
	"fmt"
	"strings"
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
)

func TestArtifactMatchesDirectComputation(t *testing.T) {
	k := kernels.NewGEMM(8, 42)
	for _, f := range []fp.Format{fp.Double, fp.Single, fp.Half} {
		art := Artifact(k, f, "", nil)
		want := kernels.Golden(k, f)
		got := art.GoldenBits()
		if len(got) != len(want) {
			t.Fatalf("%v: golden length %d, want %d", f, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: golden[%d] = %#x, want %#x", f, i, got[i], want[i])
			}
		}
		if art.Counts != kernels.Profile(k, f) {
			t.Fatalf("%v: cached counts %+v differ from direct profile %+v",
				f, art.Counts, kernels.Profile(k, f))
		}
	}
}

func TestArtifactMatchesDirectComputationWrapped(t *testing.T) {
	shape := fp.ExpShape{Terms: 5, Squarings: 1, IntSites: 1}
	k := kernels.NewLavaMD(1, 3, 7) // exercises exp
	art := Artifact(k, fp.Single, shape.Key(), fp.WrapExp(shape))
	want := kernels.GoldenWith(k, fp.Single, fp.WrapExp(shape))
	got := art.GoldenBits()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wrapped golden[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
	if wc := kernels.ProfileWith(k, fp.Single, fp.WrapExp(shape)); art.Counts != wc {
		t.Fatalf("wrapped counts %+v differ from direct profile %+v", art.Counts, wc)
	}
}

func TestArtifactSharedAcrossEqualKeys(t *testing.T) {
	a := Artifact(kernels.NewGEMM(8, 42), fp.Double, "", nil)
	b := Artifact(kernels.NewGEMM(8, 42), fp.Double, "", nil)
	if a != b {
		t.Fatal("two kernels with equal keys should share one cached artifact")
	}
}

func TestCopyInputsLeavesCachePristine(t *testing.T) {
	k := kernels.NewGEMM(8, 43)
	art := Artifact(k, fp.Double, "", nil)
	in := art.CopyInputs(nil)
	for _, arr := range in {
		for i := range arr {
			arr[i] = ^arr[i]
		}
	}
	fresh := art.CopyInputs(nil)
	want := k.Inputs(fp.Double)
	for ai := range want {
		for i := range want[ai] {
			if fresh[ai][i] != want[ai][i] {
				t.Fatalf("cached inputs corrupted at [%d][%d]", ai, i)
			}
		}
	}
	// CopyInputs reuses the destination backing arrays and restores the
	// pristine values.
	restored := art.CopyInputs(in)
	for ai := range want {
		if &restored[ai][0] != &in[ai][0] {
			t.Fatalf("CopyInputs reallocated array %d", ai)
		}
		for i := range want[ai] {
			if restored[ai][i] != want[ai][i] {
				t.Fatalf("CopyInputs did not restore [%d][%d]", ai, i)
			}
		}
	}
}

// tileCount returns the number of tiles in tt, 0 for no table.
func tileCount(tt *TileTable) int {
	if tt == nil {
		return 0
	}
	return tt.Len()
}

// TestTileTableSpansTheRun checks the closed tiles of LavaMD: one per
// (home box, neighbour box) pair in loop order, each naming a2, the two
// boxes' positions, the neighbour's charges and the home box's
// accumulators as they enter it, and each but a home box's last naming
// the accumulators it leaves as its outputs. The tiles follow the
// prologue back to back and span the run.
func TestTileTableSpansTheRun(t *testing.T) {
	const dim, perBox = 2, 2
	k := kernels.NewLavaMD(dim, perBox, 11)
	art := Artifact(k, fp.Single, "", nil)
	tiles := art.Tiles()
	boxes := dim * dim * dim
	if n := tileCount(tiles); n != boxes*boxes {
		t.Fatalf("LavaMD(%d,%d): %d tiles, want one per box pair (%d)", dim, perBox, n, boxes*boxes)
	}
	// The prologue is the one a2 multiply; tiles follow back to back,
	// and the last ends with the run.
	if got := tiles.Start(0); got != 1 {
		t.Errorf("tile 0 starts at op %d, want 1", got)
	}
	a2 := art.Results()[0]
	in := art.CopyInputs(nil)
	rv, qv, golden := in[0], in[1], art.GoldenBits()
	ops := [fp.NumOps]uint64{fp.OpMul: 1}
	tile := 0
	for home := 0; home < boxes; home++ {
		// In a 2-box grid every box neighbours every other, in index order.
		acc := make([]fp.Bits, 4*perBox)
		for i := range acc {
			acc[i] = fp.Single.FromFloat64(0)
		}
		for nb := 0; nb < boxes; nb++ {
			sh := tiles.Shape(tile)
			if tile > 0 && tiles.Start(tile) != tiles.Start(tile-1)+tiles.Shape(tile-1).Ops {
				t.Errorf("tile %d starts at %d, tile %d ends at %d", tile, tiles.Start(tile), tile-1, tiles.Start(tile-1)+tiles.Shape(tile-1).Ops)
			}
			if sh.LiveIns != 1+13*perBox {
				t.Errorf("tile %d names %d live-ins, want 1+13*perBox = %d", tile, sh.LiveIns, 1+13*perBox)
			}
			var want []fp.Bits
			want = append(want, a2)
			want = append(want, rv[4*home*perBox:4*(home+1)*perBox]...)
			want = append(want, rv[4*nb*perBox:4*(nb+1)*perBox]...)
			want = append(want, qv[nb*perBox:(nb+1)*perBox]...)
			want = append(want, acc...)
			if got := tiles.LiveIns(tile); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("tile %d (home %d, neighbour %d): live-ins %x, want %x", tile, home, nb, got, want)
			}
			outs := tiles.Outputs(tile)
			if nb == boxes-1 {
				if len(outs) != 0 {
					t.Errorf("tile %d, home box %d's last, names %d outputs", tile, home, len(outs))
				}
				if last, g := tiles.Last(tile), golden[4*(home+1)*perBox-1]; last != g {
					t.Errorf("tile %d ends with %#x, the home box's last golden accumulator is %#x", tile, last, g)
				}
			} else {
				if len(outs) != 4*perBox {
					t.Fatalf("tile %d names %d outputs, want 4*perBox = %d", tile, len(outs), 4*perBox)
				}
				if outs[len(outs)-1] != tiles.Last(tile) {
					t.Errorf("tile %d's last output %#x is not its last result %#x", tile, outs[len(outs)-1], tiles.Last(tile))
				}
				acc = append(acc[:0], outs...)
			}
			for k, n := range sh.ByOp {
				ops[k] += n
			}
			if tiles.NonFinite(tile) {
				t.Errorf("tile %d: LavaMD records a non-finite result", tile)
			}
			tile++
		}
	}
	if ops != art.Counts.ByOp {
		t.Errorf("prologue and tiles count %v, the run %v", ops, art.Counts.ByOp)
	}
	if g := Artifact(kernels.NewGEMM(4, 1), fp.Single, "", nil); g.Tiles() != nil {
		t.Errorf("GEMM marks %d tiles, want none", g.Tiles().Len())
	}
}

// hotspotStep is a reference Hotspot step with m: next's interior cells
// from grid and power, in the kernel's operation order.
func hotspotStep(m *fp.Machine, next, grid, power []fp.Bits, n int) {
	c := func(x float64) fp.Bits { return m.FromFloat64(x) }
	for r := 1; r < n-1; r++ {
		for col := 1; col < n-1; col++ {
			i := r*n + col
			tc := grid[i]
			dv := m.FMA(c(-2), tc, m.Add(grid[i+n], grid[i-n]))
			dh := m.FMA(c(-2), tc, m.Add(grid[i+1], grid[i-1]))
			acc := m.FMA(dv, c(0.25), power[i])
			acc = m.FMA(dh, c(0.25), acc)
			acc = m.FMA(m.Sub(c(80), tc), c(0.0625), acc)
			next[i] = m.FMA(c(0.0625), acc, tc)
		}
	}
}

// TestHotspotTileTable checks the closed tiles of Hotspot: one per row
// update, n-2 per step, each of the row's 9(n-2) operations, with the
// grid rows around it and its power row as its live-ins, and the row's
// new cells as its outputs on every step but the last, whose rows go to
// the output buffer. The live-ins are checked against rows replayed
// from the recorded outputs, and both against a reference stencil.
func TestHotspotTileTable(t *testing.T) {
	const n, steps = 5, 3
	k := kernels.NewHotspot(n, steps, 4)
	art := Artifact(k, fp.Half, "", nil)
	tiles := art.Tiles()
	if got := tileCount(tiles); got != (n-2)*steps {
		t.Fatalf("Hotspot(%d,%d): %d tiles, want (n-2)*steps = %d", n, steps, got, (n-2)*steps)
	}
	if len(tiles.shapes) != 2 {
		t.Errorf("Hotspot's rows take %d shapes, want 2 (naming outputs or not)", len(tiles.shapes))
	}
	want := TileShape{Ops: 9 * (n - 2), LiveIns: 4 * n, Outs: n - 2}
	want.ByOp[fp.OpAdd], want.ByOp[fp.OpSub], want.ByOp[fp.OpFMA] = 2*(n-2), n-2, 6*(n-2)
	wantLast := want
	wantLast.Outs = 0
	got := 0
	for _, c := range tiles.liveIns {
		got += len(c)
	}
	if wantSlab := 4*n*tiles.Len() + (n-2)*(n-2)*(steps-1); got != wantSlab {
		t.Errorf("live-in slab holds %d values, want 4n per tile and n-2 per output row (%d)", got, wantSlab)
	}
	// Step 0 reads the inputs; every later step reads the rows the step
	// before wrote, which are its tiles' outputs, or the inputs on the
	// border.
	m := fp.NewMachine(fp.Half)
	in := art.CopyInputs(nil)
	grid := append([]fp.Bits(nil), in[0]...)
	next := append([]fp.Bits(nil), in[0]...)
	ref := append([]fp.Bits(nil), in[0]...)
	tile := 0
	for s := 0; s < steps; s++ {
		hotspotStep(m, ref, grid, in[1], n)
		for r := 1; r < n-1; r++ {
			sh := want
			if s == steps-1 {
				sh = wantLast
			}
			if got := tiles.Shape(tile); *got != sh {
				t.Errorf("tile %d (step %d, row %d): shape %+v, want %+v", tile, s, r, *got, sh)
			}
			wantIn := append(append([]fp.Bits(nil), grid[(r-1)*n:(r+2)*n]...), in[1][r*n:(r+1)*n]...)
			if got := tiles.LiveIns(tile); fmt.Sprint(got) != fmt.Sprint(wantIn) {
				t.Fatalf("tile %d (step %d, row %d): live-ins %x, want %x", tile, s, r, got, wantIn)
			}
			if tiles.Start(tile) != uint64(9*(n-2)*tile) {
				t.Fatalf("tile %d starts at op %d, want %d", tile, tiles.Start(tile), 9*(n-2)*tile)
			}
			row := ref[r*n+1 : (r+1)*n-1]
			if tiles.Last(tile) != row[n-3] {
				t.Errorf("tile %d ends with %#x, the reference row with %#x", tile, tiles.Last(tile), row[n-3])
			}
			if s < steps-1 {
				outs := tiles.Outputs(tile)
				if fmt.Sprint(outs) != fmt.Sprint(row) {
					t.Fatalf("tile %d (step %d, row %d): outputs %x, the reference stencil %x", tile, s, r, outs, row)
				}
				copy(next[r*n+1:], outs)
			}
			tile++
		}
		grid, next = next, grid
	}
	if fmt.Sprint(ref) != fmt.Sprint(art.GoldenBits()) {
		t.Fatalf("golden grid %x, the reference stencil %x", art.GoldenBits(), ref)
	}
}

// misorderedTiles marks tile 1 before tile 0, breaking the tile
// contract of kernels.OutputKernel.
type misorderedTiles struct{}

func (misorderedTiles) Name() string                   { return "misordered" }
func (misorderedTiles) Key() string                    { return "" }
func (misorderedTiles) Inputs(f fp.Format) [][]fp.Bits { return [][]fp.Bits{{f.FromFloat64(1)}} }

func (k misorderedTiles) Run(env fp.Env, in [][]fp.Bits) []fp.Bits { return k.RunInto(env, in, nil) }

func (misorderedTiles) RunInto(env fp.Env, in [][]fp.Bits, out []fp.Bits) []fp.Bits {
	if cap(out) < 2 {
		out = make([]fp.Bits, 2)
	}
	out = out[:2]
	for _, tile := range []int{1, 0} {
		if _, skip := fp.SkipTile(env, tile, nil, nil); !skip {
			out[tile] = env.Add(in[0][0], in[0][0])
		}
	}
	return out
}

func TestTilesOutOfOrderFailArtifactBuild(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("artifact build accepted tiles called out of order")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "called tile 1 where tile 0 was due") {
			t.Fatalf("artifact build failed with %q, not the tile order check", msg)
		}
	}()
	Artifact(misorderedTiles{}, fp.Single, "", nil)
}

// twice runs a tiled kernel two times over, so its counted run sees
// tiles 0…n−1 twice; it is no OutputKernel, as mitigate.TMR is not.
type twice struct{ kernels.Kernel }

func (w twice) Key() string { return "" }

func (w twice) Run(env fp.Env, in [][]fp.Bits) []fp.Bits {
	w.Kernel.Run(env, in)
	return w.Kernel.Run(env, in)
}

func TestTiledKernelInsideAnotherKernelHasNoTiles(t *testing.T) {
	art := Artifact(twice{kernels.NewLavaMD(2, 1, 3)}, fp.Single, "", nil)
	if art.Tiles() != nil {
		t.Fatalf("a kernel running LavaMD twice got %d tiles, want none", art.Tiles().Len())
	}
}

// yoloConv is the reference convolution of a YOLO layer stage, one
// scalar FMA chain per output pixel from its bias in (ic, ky, kx)
// order, with valid padding and stride 1.
func yoloConv(m *fp.Machine, x []fp.Bits, c, h, w int, wt, b []fp.Bits) (out []fp.Bits, oc, oh, ow int) {
	const k = 3
	oc, oh, ow = len(b), h-k+1, w-k+1
	out = make([]fp.Bits, oc*oh*ow)
	for o := 0; o < oc; o++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				acc := b[o]
				for ic := 0; ic < c; ic++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							acc = m.FMA(x[(ic*h+y+ky)*w+xx+kx], wt[((o*c+ic)*k+ky)*k+kx], acc)
						}
					}
				}
				out[(o*oh+y)*ow+xx] = acc
			}
		}
	}
	return out, oc, oh, ow
}

// yoloLeakyPool is the reference leaky ReLU (negative values times 1/8)
// and 2x2 max-pool of a c x h x w tensor.
func yoloLeakyPool(m *fp.Machine, x []fp.Bits, c, h, w int) []fp.Bits {
	f := m.Format()
	eighth := m.FromFloat64(0.125)
	for i, v := range x {
		if f.Sign(v) && !f.IsZero(v) || f.IsNaN(v) {
			x[i] = m.Mul(v, eighth)
		}
	}
	oh, ow := h/2, w/2
	out := make([]fp.Bits, c*oh*ow)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				best := x[(ch*h+2*y)*w+2*xx]
				for _, v := range []fp.Bits{x[(ch*h+2*y)*w+2*xx+1], x[(ch*h+2*y+1)*w+2*xx], x[(ch*h+2*y+1)*w+2*xx+1]} {
					if f.ToFloat64(v) > f.ToFloat64(best) {
						best = v
					}
				}
				out[(ch*oh+y)*ow+xx] = best
			}
		}
	}
	return out
}

// TestYOLOTileTable checks YOLO's three layer stages against a plain
// fp.Machine run of the network: each stage's live-ins are its input
// tensor, weights and bias, the first two name the pooled tensor the
// next stage reads as their outputs, the last names none, and the
// stages span the run.
func TestYOLOTileTable(t *testing.T) {
	k := kernels.NewYOLO(1006)
	for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
		art := Artifact(k, f, "", nil)
		tiles := art.Tiles()
		if n := tileCount(tiles); n != 3 {
			t.Fatalf("%v: YOLO marks %d tiles, want its 3 layer stages", f, n)
		}
		m := fp.NewMachine(f)
		in := art.CopyInputs(nil)
		x, c, h, w := in[0], 1, kernels.YOLOInputSize, kernels.YOLOInputSize
		var ops uint64
		for s := 0; s < 3; s++ {
			wt, b := in[1+2*s], in[2+2*s]
			want := append(append(append([]fp.Bits(nil), x...), wt...), b...)
			if got := tiles.LiveIns(s); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%v stage %d: live-ins differ from its input tensor, weights and bias", f, s)
			}
			if tiles.Start(s) != ops {
				t.Errorf("%v stage %d starts at op %d, want %d", f, s, tiles.Start(s), ops)
			}
			ops += tiles.Shape(s).Ops
			conv, oc, oh, ow := yoloConv(m, x, c, h, w, wt, b)
			if s == 2 {
				if fmt.Sprint(conv) != fmt.Sprint(art.GoldenBits()) {
					t.Errorf("%v: conv3 of stage 2's live-ins is not the golden output", f)
				}
				if n := len(tiles.Outputs(s)); n != 0 {
					t.Errorf("%v: the last stage names %d outputs", f, n)
				}
				break
			}
			x, c, h, w = yoloLeakyPool(m, conv, oc, oh, ow), oc, oh/2, ow/2
			if got := tiles.Outputs(s); fmt.Sprint(got) != fmt.Sprint(x) {
				t.Errorf("%v stage %d: its %d recorded outputs differ from the %d-value pooled tensor", f, s, len(got), len(x))
			}
		}
		if ops != art.Counts.Total() {
			t.Errorf("%v: stages span %d operations, the run %d", f, ops, art.Counts.Total())
		}
	}
}

// lastTileNamesOutputs marks two tiles, the last of which names an
// output outside the output buffer, breaking the tile contract of
// kernels.OutputKernel.
type lastTileNamesOutputs struct{}

func (lastTileNamesOutputs) Name() string                   { return "last-names-outputs" }
func (lastTileNamesOutputs) Key() string                    { return "" }
func (lastTileNamesOutputs) Inputs(f fp.Format) [][]fp.Bits { return [][]fp.Bits{{f.FromFloat64(1)}} }

func (k lastTileNamesOutputs) Run(env fp.Env, in [][]fp.Bits) []fp.Bits {
	return k.RunInto(env, in, nil)
}

func (lastTileNamesOutputs) RunInto(env fp.Env, in [][]fp.Bits, out []fp.Bits) []fp.Bits {
	if cap(out) < 1 {
		out = make([]fp.Bits, 1)
	}
	out = out[:1]
	mid := make([]fp.Bits, 1)
	if _, skip := fp.SkipTile(env, 0, in[0], mid); !skip {
		mid[0] = env.Add(in[0][0], in[0][0])
	}
	if _, skip := fp.SkipTile(env, 1, mid, mid); !skip {
		mid[0] = env.Add(mid[0], mid[0])
		out[0] = mid[0]
	}
	return out
}

func TestLastTileNamingOutputsFailsArtifactBuild(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("artifact build accepted a last tile that names outputs")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "last tile 1 names 1 outputs") {
			t.Fatalf("artifact build failed with %q, not the last-tile check", msg)
		}
	}()
	Artifact(lastTileNamesOutputs{}, fp.Single, "", nil)
}

func TestYOLOInsideAnotherKernelHasNoTiles(t *testing.T) {
	art := Artifact(twice{kernels.NewYOLO(5)}, fp.Half, "", nil)
	if art.Tiles() != nil {
		t.Fatalf("a kernel running YOLO twice got %d tiles, want none", art.Tiles().Len())
	}
}

// TestTileLiveInSlab round-trips live-ins and named outputs of every
// size through the table's chunked slab: a tile that would straddle two
// chunks, one naming more than a chunk holds, one naming no live-ins
// but an output, and small ones around them. Each tile writes its outputs
// after its call, so the slab must take them at the next one.
func TestTileLiveInSlab(t *testing.T) {
	sizes := []int{3, 1<<chunkBits - 5, 5, 1<<chunkBits + 7, 0, 2}
	outs := []int{2, 4, 1 << chunkBits, 3, 1, 0}
	b := &tileBuilder{kernel: "slab"}
	var at fp.OpCounts
	var want, wantOut [][]fp.Bits
	v := fp.Bits(0)
	seq := func(n int) []fp.Bits {
		var s []fp.Bits
		for j := 0; j < n; j++ {
			v++
			s = append(s, v)
		}
		return s
	}
	for i, n := range sizes {
		in := seq(n)
		want = append(want, in)
		out := make([]fp.Bits, outs[i])
		b.RecordTile(i, in, out, &at)
		copy(out, seq(outs[i])) // the tile runs
		wantOut = append(wantOut, out)
		at.ByOp[fp.OpAdd]++
	}
	tt := b.table(fp.Single, &at, make([]fp.Bits, at.Total()))
	for i, n := range sizes {
		if got := tt.Shape(i).LiveIns; got != n {
			t.Errorf("tile %d: %d live-ins, want %d", i, got, n)
		}
		if got := tt.Outputs(i); fmt.Sprint(got) != fmt.Sprint(wantOut[i]) {
			t.Errorf("tile %d: %d outputs differ from the %d the tile wrote", i, len(got), outs[i])
		}
		if got := tt.LiveIns(i); fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Errorf("tile %d: live-ins differ from the %d recorded", i, n)
		}
	}
}
