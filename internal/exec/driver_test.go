package exec

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mixedrel/internal/rng"
)

func ident(v uint64) uint64 { return v }

// newTestSession opens a session whose samples are the first draw of
// their stream, journaled as is.
func newTestSession(t *testing.T, ctx context.Context, workers int, ck *Checkpoint) *Session[uint64, uint64] {
	t.Helper()
	s, err := NewSession(ctx, workers, ck, ident, ident)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func firstDraw(_ int, r *rng.Rand) uint64 { return r.Uint64() }

func TestSampleSequentialIsSingleStream(t *testing.T) {
	const n, seed = 64, 12345
	want := make([]uint64, n)
	r := rng.New(seed)
	for i := range want {
		want[i] = r.Uint64()
	}
	got, seeds, err := newTestSession(t, nil, 1, nil).Run(Flat(seed, n), firstDraw)
	if err != nil {
		t.Fatal(err)
	}
	if seeds != nil {
		t.Errorf("sequential mode reports per-sample seeds")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %d, want %d (single-stream order)", i, got[i], want[i])
		}
	}
}

func TestSampleParallelIndependentOfWorkerCount(t *testing.T) {
	const n, seed = 64, 999
	run := func(workers int) []uint64 {
		out, seeds, err := newTestSession(t, nil, workers, nil).Run(Flat(seed, n), firstDraw)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			if s != SampleSeed(seed, i) {
				t.Fatalf("workers=%d: seed %d = %#x, want SampleSeed", workers, i, s)
			}
		}
		return out
	}
	a, b := run(2), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample differs at %d: workers=2 gives %d, workers=8 gives %d", i, a[i], b[i])
		}
	}
}

// TestSampleResumeStreamDerivation: with a checkpoint every sample's
// stream must equal rng.New(SampleSeed(seed, i)) regardless of worker
// count, the property byte-identical resume rests on.
func TestSampleResumeStreamDerivation(t *testing.T) {
	const n, seed = 12, 99
	for _, workers := range []int{1, 3} {
		ck := &Checkpoint{Path: filepath.Join(t.TempDir(), "j.jsonl")}
		got, _, err := newTestSession(t, nil, workers, ck).Run(Flat(seed, n), firstDraw)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if want := rng.New(SampleSeed(seed, i)).Uint64(); got[i] != want {
				t.Errorf("workers=%d item %d drew %#x, want %#x", workers, i, got[i], want)
			}
		}
	}
}

// TestSampleResumeSkips: journaled samples are decoded, not re-run, and
// the samples that do run keep their own streams.
func TestSampleResumeSkips(t *testing.T) {
	const n, seed = 10, 7
	ck := &Checkpoint{Path: filepath.Join(t.TempDir(), "j.jsonl")}
	j, err := ck.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 2 {
		if err := j.Record(i, uint64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	ran := make([]bool, n)
	got, _, err := newTestSession(t, nil, 1, ck).Run(Flat(seed, n), func(i int, r *rng.Rand) uint64 {
		ran[i] = true
		return r.Uint64()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if ran[i] != (i%2 == 1) {
			t.Errorf("item %d ran=%v", i, ran[i])
		}
		want := uint64(1000 + i)
		if i%2 == 1 {
			want = rng.New(SampleSeed(seed, i)).Uint64()
		}
		if got[i] != want {
			t.Errorf("item %d = %d, want %d", i, got[i], want)
		}
	}
}

// TestSessionLimitSpansBatches: Checkpoint.Limit bounds the new samples
// of a whole session, across batches, and resuming completes every
// batch to the values of an uninterrupted run.
func TestSessionLimitSpansBatches(t *testing.T) {
	batches := []Batch{
		Keyed([]int{SampleKey(0, 0), SampleKey(1, 0), SampleKey(1, 1)}, []uint64{11, 12, 13}),
		Keyed([]int{SampleKey(0, 1), SampleKey(2, 0)}, []uint64{14, 15}),
	}
	runAll := func(s *Session[uint64, uint64]) ([]uint64, error) {
		var all []uint64
		for _, b := range batches {
			out, _, err := s.Run(b, firstDraw)
			if err != nil {
				return nil, err
			}
			all = append(all, out...)
		}
		return all, nil
	}
	want, err := runAll(newTestSession(t, nil, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []uint64{11, 12, 13, 14, 15} {
		if want[i] != rng.New(s).Uint64() {
			t.Fatalf("keyed sample %d does not draw from its seed", i)
		}
	}

	path := filepath.Join(t.TempDir(), "j.jsonl")
	var got []uint64
	for attempt := 0; got == nil; attempt++ {
		if attempt > len(want) {
			t.Fatal("session never completed under Limit 2")
		}
		s := newTestSession(t, nil, 2, &Checkpoint{Path: path, Limit: 2, Every: 1})
		out, err := runAll(s)
		if err != nil && !errors.Is(err, ErrPartial) {
			t.Fatal(err)
		}
		s.Close()
		got = out
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("resumed sample %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestSessionCancelled: a cancelled session drains, closes its journal
// and reports an honest resume point; without a checkpoint there is
// none.
func TestSessionCancelled(t *testing.T) {
	for _, ck := range []*Checkpoint{nil, {Path: filepath.Join(t.TempDir(), "j.jsonl"), Every: 100}} {
		ctx, cancel := context.WithCancel(context.Background())
		s := newTestSession(t, ctx, 1, ck)
		_, _, err := s.Run(Flat(3, 10), func(i int, r *rng.Rand) uint64 {
			if i == 3 {
				cancel()
			}
			return r.Uint64()
		})
		cancel()
		var in *Interrupted
		if !errors.As(err, &in) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want *Interrupted wrapping context.Canceled", err)
		}
		want := -1
		if ck != nil {
			want = 4
			// The reported count is durable: a fresh open sees it.
			j, err := ck.Open()
			if err != nil {
				t.Fatal(err)
			}
			if j.Len() != want {
				t.Errorf("journal holds %d records after interruption, want %d", j.Len(), want)
			}
			j.Close()
		}
		if in.Journaled != want {
			t.Errorf("Journaled = %d, want %d", in.Journaled, want)
		}
	}
}

func TestSessionCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte(`{"i":1,"v":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := newTestSession(t, nil, 1, &Checkpoint{Path: path}).Run(Flat(1, 3), firstDraw)
	if err == nil || !strings.Contains(err.Error(), "corrupt checkpoint record 1") {
		t.Fatalf("err = %v, want a corrupt-record error", err)
	}
}

// TestMapSliceBitPatterns: journal records carry floats as bit
// patterns, so non-finite values and negative zero round-trip exactly
// and nil stays nil (an absent record field).
func TestMapSliceBitPatterns(t *testing.T) {
	vals := []float64{1.5, math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	back := MapSlice(MapSlice(vals, math.Float64bits), math.Float64frombits)
	for i := range vals {
		if math.Float64bits(back[i]) != math.Float64bits(vals[i]) {
			t.Errorf("element %d: %#x, want %#x", i, math.Float64bits(back[i]), math.Float64bits(vals[i]))
		}
	}
	if MapSlice([]float64(nil), math.Float64bits) != nil {
		t.Error("nil input mapped to a non-nil slice")
	}
	if got := MapSlice([]float64{}, math.Float64bits); got == nil || len(got) != 0 {
		t.Errorf("empty input mapped to %v", got)
	}
}
