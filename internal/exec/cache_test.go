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
	in := art.NewInputs()
	for _, arr := range in {
		for i := range arr {
			arr[i] = ^arr[i]
		}
	}
	fresh := art.NewInputs()
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

func TestTileTableSpansTheRun(t *testing.T) {
	k := kernels.NewLavaMD(2, 2, 11)
	art := Artifact(k, fp.Single, "", nil)
	tiles := art.Tiles()
	if len(tiles) != 8 {
		t.Fatalf("LavaMD(2,2): %d tiles, want one per home box (8)", len(tiles))
	}
	// The prologue is the one a2 multiply; tiles follow back to back,
	// and the last ends with the run.
	if got := tiles[0].Start.Total(); got != 1 {
		t.Errorf("tile 0 starts at op %d, want 1", got)
	}
	for i := 1; i < len(tiles); i++ {
		if tiles[i].Start != tiles[i-1].End {
			t.Errorf("tile %d starts at %+v, tile %d ends at %+v", i, tiles[i].Start, i-1, tiles[i-1].End)
		}
	}
	if end := tiles[len(tiles)-1].End; end.ByOp != art.Counts.ByOp {
		t.Errorf("last tile ends at %+v, run at %+v", end.ByOp, art.Counts.ByOp)
	}
	for i, tl := range tiles {
		if tl.NonFinite {
			t.Errorf("tile %d: LavaMD records a non-finite result", i)
		}
	}
	if g := Artifact(kernels.NewGEMM(4, 1), fp.Single, "", nil); g.Tiles() != nil {
		t.Errorf("GEMM marks %d tiles, want none", len(g.Tiles()))
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
		if !fp.SkipTile(env, tile) {
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
		t.Fatalf("a kernel running LavaMD twice got %d tiles, want none", len(art.Tiles()))
	}
}
