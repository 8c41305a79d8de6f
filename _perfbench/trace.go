package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the exported function it calls. Times are nanoseconds since the
// tracer's epoch; Parent is the index of the enclosing span, -1 for a
// root; Run groups the spans of one campaign or experiment.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps spans in memory; they are written out only when the
// benchmark ends. Safe for concurrent use: a span is one atomic index
// increment plus writes to its own slot, so workers recording spans do
// not serialize on a lock (which would show up as tracing overhead).
type tracer struct {
	epoch  time.Time
	n      atomic.Int64
	chunks [maxChunks]atomic.Pointer[[chunkSize]span]
	mu     sync.Mutex // guards chunk allocation, runs and notes
	runs   int
	// notes are per-layer readings that are not durations, such as the
	// journal's bytes per record.
	notes map[string]float64
}

const (
	chunkSize = 1 << 14
	maxChunks = 1 << 12
)

func newTracer() *tracer { return &tracer{epoch: time.Now(), notes: map[string]float64{}} }

func (t *tracer) note(name string, v float64) {
	t.mu.Lock()
	t.notes[name] = v
	t.mu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// slot returns span id's storage, allocating its chunk on first use.
func (t *tracer) slot(id int) *span {
	c := t.chunks[id/chunkSize].Load()
	if c == nil {
		t.mu.Lock()
		if c = t.chunks[id/chunkSize].Load(); c == nil {
			c = new([chunkSize]span)
			t.chunks[id/chunkSize].Store(c)
		}
		t.mu.Unlock()
	}
	return &c[id%chunkSize]
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, run int) int {
	id := int(t.n.Add(1) - 1)
	*t.slot(id) = span{Name: name, Start: t.now(), Parent: parent, Run: run}
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	t.slot(id).End = t.now()
}

// mark returns the index the next span will get.
func (t *tracer) mark() int { return int(t.n.Load()) }

// snapshot returns a copy of every span recorded so far. Call it only
// once the goroutines recording those spans have finished.
func (t *tracer) snapshot() []span { return t.since(0) }

// since returns a copy of the spans recorded from index lo on, with
// parent indices rebased into the copy (a parent before lo becomes -1).
func (t *tracer) since(lo int) []span {
	out := make([]span, t.mark()-lo)
	for i := range out {
		out[i] = *t.slot(lo + i)
		if out[i].Parent >= 0 {
			out[i].Parent -= lo
			if out[i].Parent < 0 {
				out[i].Parent = -1
			}
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals
// (children may overlap one another when they ran on different
// goroutines, and are clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				if v.hi > curHi {
					curHi = v.hi
				}
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time by span name over the spans for which keep
// returns true.
func layerSelf(spans []span, keep func(span) bool) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for i, s := range spans {
		if keep(s) {
			out[s.Name] += self[i]
		}
	}
	return out
}

// durations returns the durations, in nanoseconds, of the spans named
// name within run (any run when run < 0).
func durations(spans []span, name string, run int) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (run < 0 || s.Run == run) {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}
