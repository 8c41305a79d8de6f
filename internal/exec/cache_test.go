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

func TestTileTableSpansTheRun(t *testing.T) {
	k := kernels.NewLavaMD(2, 2, 11)
	art := Artifact(k, fp.Single, "", nil)
	tiles := art.Tiles()
	if n := tileCount(tiles); n != 8 {
		t.Fatalf("LavaMD(2,2): %d tiles, want one per home box (8)", n)
	}
	// The prologue is the one a2 multiply; tiles follow back to back,
	// and the last ends with the run.
	if got := tiles.Start(0); got != 1 {
		t.Errorf("tile 0 starts at op %d, want 1", got)
	}
	ops := [fp.NumOps]uint64{fp.OpMul: 1}
	for i := 0; i < tiles.Len(); i++ {
		sh := tiles.Shape(i)
		if i > 0 && tiles.Start(i) != tiles.Start(i-1)+tiles.Shape(i-1).Ops {
			t.Errorf("tile %d starts at %d, tile %d ends at %d", i, tiles.Start(i), i-1, tiles.Start(i-1)+tiles.Shape(i-1).Ops)
		}
		if sh.LiveIns != Open {
			t.Errorf("tile %d names %d live-ins; a home box is open", i, sh.LiveIns)
		}
		for k, n := range sh.ByOp {
			ops[k] += n
		}
		if tiles.NonFinite(i) {
			t.Errorf("tile %d: LavaMD records a non-finite result", i)
		}
	}
	if ops != art.Counts.ByOp {
		t.Errorf("prologue and tiles count %v, the run %v", ops, art.Counts.ByOp)
	}
	if g := Artifact(kernels.NewGEMM(4, 1), fp.Single, "", nil); g.Tiles() != nil {
		t.Errorf("GEMM marks %d tiles, want none", g.Tiles().Len())
	}
}

// TestHotspotTileTable checks the closed tiles of Hotspot: one per cell
// update, (n-2)^2 per step, each of the cell's 9 operations, with the
// stencil temperatures and the power as its live-ins, and one shape for
// all of them.
func TestHotspotTileTable(t *testing.T) {
	const n, steps = 5, 3
	k := kernels.NewHotspot(n, steps, 4)
	art := Artifact(k, fp.Half, "", nil)
	tiles := art.Tiles()
	if got := tileCount(tiles); got != (n-2)*(n-2)*steps {
		t.Fatalf("Hotspot(%d,%d): %d tiles, want (n-2)^2*steps = %d", n, steps, got, (n-2)*(n-2)*steps)
	}
	if len(tiles.shapes) != 1 {
		t.Errorf("Hotspot's cells take %d shapes, want 1", len(tiles.shapes))
	}
	want := TileShape{Ops: 9, LiveIns: 6}
	want.ByOp[fp.OpAdd], want.ByOp[fp.OpSub], want.ByOp[fp.OpFMA] = 2, 1, 6
	if sh := tiles.Shape(0); *sh != want {
		t.Errorf("cell shape %+v, want %+v", *sh, want)
	}
	got := 0
	for _, c := range tiles.liveIns {
		got += len(c)
	}
	if got != 6*tiles.Len() {
		t.Errorf("live-in slab holds %d values, want 6 per tile (%d)", got, 6*tiles.Len())
	}
	// Step 0 reads the inputs; every later step reads the cells the step
	// before wrote, which are its tiles' last results, or the inputs on
	// the border.
	in := art.CopyInputs(nil)
	grid := append([]fp.Bits(nil), in[0]...)
	next := append([]fp.Bits(nil), in[0]...)
	tile := 0
	for s := 0; s < steps; s++ {
		for r := 1; r < n-1; r++ {
			for c := 1; c < n-1; c++ {
				i := r*n + c
				wantIn := []fp.Bits{grid[i+n], grid[i-n], grid[i+1], grid[i-1], grid[i], in[1][i]}
				if got := tiles.LiveIns(tile); fmt.Sprint(got) != fmt.Sprint(wantIn) {
					t.Fatalf("tile %d (step %d, cell %d,%d): live-ins %x, want %x", tile, s, r, c, got, wantIn)
				}
				if tiles.Start(tile) != uint64(9*tile) {
					t.Fatalf("tile %d starts at op %d, want %d", tile, tiles.Start(tile), 9*tile)
				}
				next[i] = tiles.Last(tile)
				tile++
			}
		}
		grid, next = next, grid
	}
	for i, b := range art.GoldenBits() {
		if grid[i] != b {
			t.Fatalf("golden cell %d is %#x, the tiles' last results give %#x", i, b, grid[i])
		}
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
// chunks, one naming more than a chunk holds, an open tile naming an
// output, and small ones around them. Each tile writes its outputs
// after its call, so the slab must take them at the next one.
func TestTileLiveInSlab(t *testing.T) {
	sizes := []int{3, 1<<chunkBits - 5, 5, 1<<chunkBits + 7, Open, 2}
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
		if n == Open {
			continue
		}
		if got := tt.LiveIns(i); fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Errorf("tile %d: live-ins differ from the %d recorded", i, n)
		}
	}
}
