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
		if _, skip := fp.SkipTile(env, tile, nil); !skip {
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

// TestTileLiveInSlab round-trips live-ins of every size through the
// table's chunked slab: a tile that would straddle two chunks, one
// naming more than a chunk holds, an open tile and small ones around
// them.
func TestTileLiveInSlab(t *testing.T) {
	sizes := []int{3, 1<<chunkBits - 5, 5, 1<<chunkBits + 7, Open, 2}
	b := &tileBuilder{kernel: "slab"}
	var at fp.OpCounts
	var want [][]fp.Bits
	v := fp.Bits(0)
	for i, n := range sizes {
		var in []fp.Bits
		for j := 0; j < n; j++ {
			v++
			in = append(in, v)
		}
		want = append(want, in)
		b.RecordTile(i, in, &at)
		at.ByOp[fp.OpAdd]++
	}
	tt := b.table(fp.Single, &at, make([]fp.Bits, at.Total()))
	for i, n := range sizes {
		if got := tt.Shape(i).LiveIns; got != n {
			t.Errorf("tile %d: %d live-ins, want %d", i, got, n)
		}
		if n == Open {
			continue
		}
		if got := tt.LiveIns(i); fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Errorf("tile %d: live-ins differ from the %d recorded", i, n)
		}
	}
}
