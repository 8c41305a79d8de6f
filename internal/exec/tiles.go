package exec

import (
	"fmt"
	"sync"

	"mixedrel/internal/fp"
	"mixedrel/internal/traceir"
)

// TileTable is the output tile table of a fault-free run (see
// kernels.OutputKernel). It is compact, because a kernel may mark
// thousands of small tiles (each Hotspot cell update is one): per tile
// it keeps where the tile ends in the result trace, the index of its
// shape, and where its live-ins start in the slab, followed by its
// named outputs; per distinct shape, the counts a skip adds and how
// many values the tile names. The slab is built in chunks, which are
// never copied to grow it, and no tile's values straddle two. Whether a
// tile produced a non-finite result is read off the result trace on
// first use, since only a run with a live trap asks. Shared and safe
// for concurrent use.
type TileTable struct {
	tiles   []tileEntry
	shapes  []TileShape
	liveIns [][]fp.Bits // the slab's chunks: live-ins, then named outputs
	results []fp.Bits
	format  fp.Format

	scan      sync.Once
	nonFinite []uint64 // bit t set: tile t produced a non-finite result
}

// tileEntry is one tile of a TileTable.
type tileEntry struct {
	end   uint32 // one past the tile's last operation in the result trace
	shape uint32 // index into shapes
	in    uint32 // first live-in: chunk<<chunkBits | offset in the chunk
}

// chunkBits sizes the live-in slab's chunks: 1<<chunkBits values each,
// except that a tile naming more gets a chunk of its own.
const chunkBits = 12

// TileShape is what skipping a tile adds to a run's counters, the
// tile's operations by kind and in all and its integer sequencing
// sites, how many live-ins it names (Open for an open tile), and how
// many outputs outside the output buffer it names.
type TileShape struct {
	ByOp     [fp.NumOps]uint64
	Ops      uint64
	IntSites uint64
	LiveIns  int
	Outs     int
}

// Open is TileShape.LiveIns of an open tile, which names no live-ins.
const Open = -1

// Len returns the number of tiles.
func (tt *TileTable) Len() int { return len(tt.tiles) }

// Shape returns tile t's shape. Shared; do not mutate.
func (tt *TileTable) Shape(t int) *TileShape { return &tt.shapes[tt.tiles[t].shape] }

// Start returns the index of tile t's first operation in the result
// trace (its end, for a tile without operations).
func (tt *TileTable) Start(t int) uint64 {
	e := tt.tiles[t]
	return uint64(e.end) - tt.shapes[e.shape].Ops
}

// LiveIns returns closed tile t's live-ins in the fault-free run, in
// the order the kernel named them. Shared; do not mutate.
func (tt *TileTable) LiveIns(t int) []fp.Bits {
	e := tt.tiles[t]
	off := int(e.in & (1<<chunkBits - 1))
	return tt.liveIns[e.in>>chunkBits][off : off+tt.shapes[e.shape].LiveIns]
}

// Outputs returns the values tile t names as outputs, as the tile
// wrote them in the fault-free run, in the order the kernel named
// them. Shared; do not mutate.
func (tt *TileTable) Outputs(t int) []fp.Bits {
	e := tt.tiles[t]
	sh := &tt.shapes[e.shape]
	if sh.Outs == 0 {
		return nil
	}
	off := int(e.in&(1<<chunkBits-1)) + max(sh.LiveIns, 0)
	return tt.liveIns[e.in>>chunkBits][off : off+sh.Outs]
}

// Last returns the fault-free result of tile t's last operation, or 0
// for a tile without operations.
func (tt *TileTable) Last(t int) fp.Bits {
	e := tt.tiles[t]
	if tt.shapes[e.shape].Ops == 0 {
		return 0
	}
	return tt.results[e.end-1]
}

// NonFinite reports whether any of tile t's operations produced a NaN
// or an infinity in the fault-free run. The first call scans the
// result trace once for every tile.
func (tt *TileTable) NonFinite(t int) bool {
	tt.scan.Do(tt.scanNonFinite)
	return tt.nonFinite[t/64]&(1<<(t%64)) != 0
}

func (tt *TileTable) scanNonFinite() {
	tt.nonFinite = make([]uint64, (len(tt.tiles)+63)/64)
	for t, e := range tt.tiles {
		if tt.format.AnyNonFinite(tt.results[tt.Start(t):e.end]) {
			tt.nonFinite[t/64] |= 1 << (t % 64)
		}
	}
}

// tileBuilder builds a TileTable from the Tile calls of a counting run
// (fp.TileRecorder). A tile's shape is known at the next call, or at
// the end of the run for the last tile: no arithmetic follows it. So
// are the values of its named outputs, which the tile has written by
// then; the last tile may name none, since once Run returns the kernel
// may already have reused their storage.
type tileBuilder struct {
	kernel  string
	n       int // tiles called
	tiles   []tileEntry
	shapes  []TileShape
	index   map[TileShape]uint32
	liveIns [][]fp.Bits
	at      fp.OpCounts // counts at the last Tile call
	pos     uint64      // operation index at the last tile's start
	in      int         // live-ins the last tile named, or Open
	out     []fp.Bits   // the outputs the last tile named, in the kernel's storage
	outAt   []fp.Bits   // their place in the slab
	dropped bool        // the run outgrew the result trace: no table
}

// RecordTile implements fp.TileRecorder. Tiles called out of order
// break the kernels.OutputKernel contract and panic.
func (b *tileBuilder) RecordTile(t int, in, out []fp.Bits, at *fp.OpCounts) {
	if t != b.n {
		panic(fmt.Sprintf("exec: %s called tile %d where tile %d was due; tiles run in order 0, 1, ...", b.kernel, t, b.n))
	}
	b.n++
	// The last tile called has run: its named outputs hold their values.
	copy(b.outAt, b.out)
	b.out = out
	if b.dropped {
		return
	}
	start := b.end(at)
	if start > traceir.MaxOps {
		b.dropped = true
		b.tiles, b.liveIns, b.index, b.outAt = nil, nil, nil, nil
		return
	}
	b.pos, b.in = start, Open
	if in != nil {
		b.in = len(in)
	}
	var pos uint32
	pos, b.outAt = b.reserve(in, len(out))
	b.tiles = append(b.tiles, tileEntry{in: pos})
}

// reserve adds in to the slab, followed by room for nOut outputs, and
// returns where in starts and the room.
func (b *tileBuilder) reserve(in []fp.Bits, nOut int) (uint32, []fp.Bits) {
	n := len(in) + nOut
	if n == 0 {
		return 0, nil
	}
	last := len(b.liveIns) - 1
	if last < 0 || len(b.liveIns[last])+n > cap(b.liveIns[last]) {
		b.liveIns = append(b.liveIns, make([]fp.Bits, 0, max(1<<chunkBits, n)))
		last++
	}
	c := &b.liveIns[last]
	at := len(*c)
	*c = append(*c, in...)
	*c = (*c)[:at+n]
	return uint32(last<<chunkBits | at), (*c)[at+len(in):]
}

// end closes the last tile called, if any, at the counts at, which it
// keeps for the next tile, and returns their operation total.
func (b *tileBuilder) end(at *fp.OpCounts) uint64 {
	sh := TileShape{IntSites: at.IntSites - b.at.IntSites, LiveIns: b.in, Outs: len(b.outAt)}
	var total uint64
	for k, n := range &at.ByOp {
		sh.ByOp[k] = n - b.at.ByOp[k]
		sh.Ops += sh.ByOp[k]
		total += n
	}
	b.at = *at
	if n := len(b.tiles); n > 0 {
		e := &b.tiles[n-1]
		e.end = uint32(b.pos + sh.Ops)
		e.shape = b.shapeIndex(&sh)
	}
	return total
}

// shapeIndex returns sh's index in shapes, adding it if new. Tiles of
// one shape tend to run back to back, so the previous tile's shape is
// tried before the map.
func (b *tileBuilder) shapeIndex(sh *TileShape) uint32 {
	if n := len(b.tiles); n > 1 {
		if prev := b.tiles[n-2].shape; b.shapes[prev] == *sh {
			return prev
		}
	}
	if i, ok := b.index[*sh]; ok {
		return i
	}
	if b.index == nil {
		b.index = make(map[TileShape]uint32)
	}
	i := uint32(len(b.shapes))
	b.shapes = append(b.shapes, *sh)
	b.index[*sh] = i
	return i
}

// table returns the finished table, with the run ending at the counts
// end, or nil when no tile was called (or b is nil: the kernel is no
// OutputKernel) or the result trace was dropped. A last tile that
// names outputs breaks the kernels.OutputKernel contract and panics.
func (b *tileBuilder) table(f fp.Format, end *fp.OpCounts, results []fp.Bits) *TileTable {
	if b == nil {
		return nil
	}
	if len(b.out) > 0 {
		panic(fmt.Sprintf("exec: %s's last tile %d names %d outputs; it may write only the output buffer", b.kernel, b.n-1, len(b.out)))
	}
	if b.dropped || len(b.tiles) == 0 || results == nil {
		return nil
	}
	b.end(end)
	return &TileTable{tiles: b.tiles, shapes: b.shapes, liveIns: b.liveIns, results: results, format: f}
}
