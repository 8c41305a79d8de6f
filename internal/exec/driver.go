package exec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"mixedrel/internal/rng"
	"mixedrel/internal/telemetry"
)

// Batch is one set of samples for Session.Run: each sample carries a
// journal key and a private random-stream seed.
type Batch struct {
	n     int
	keys  []int    // nil: sample i has key i
	seeds []uint64 // nil: a flat batch, seeded from seed
	seed  uint64
}

// Flat is the batch of a flat campaign of n samples seeded by seed:
// sample i has key i and draws from the stream rng.New(SampleSeed(seed,
// i)) — or, in a session's sequential mode, all n samples share the one
// stream rng.New(seed).
func Flat(seed uint64, n int) Batch { return Batch{n: n, seed: seed} }

// Keyed is a batch of explicitly addressed samples: sample i has key
// keys[i] and draws from rng.New(seeds[i]). It never runs in sequential
// mode.
func Keyed(keys []int, seeds []uint64) Batch {
	return Batch{n: len(keys), keys: keys, seeds: seeds}
}

// Session is the campaign driver: the one loop that runs samples. A
// campaign opens a session, runs one batch (uniform and beam campaigns)
// or one batch per allocation round (stratified campaigns), and closes
// it. The session owns everything between a sample key and its value:
// worker fan-out, the checkpoint journal (lookup, decode, Record), the
// Checkpoint.Limit rule, cancellation, journal degradation, and the
// progress line. T is the campaign's sample value and R its journal
// record.
type Session[T, R any] struct {
	ctx     context.Context
	workers int
	j       *Journal // nil without a checkpoint
	limit   int64
	ran     atomic.Int64 // samples run (not read from the journal) so far
	drew    atomic.Bool  // Progressf was called
	encode  func(T) R
	decode  func(R) T
}

// NewSession opens a campaign's session: up to workers goroutines per
// batch under ctx (nil: not cancellable), journaling to ck (nil: no
// checkpoint) through encode and decode. The caller must Close it.
func NewSession[T, R any](ctx context.Context, workers int, ck *Checkpoint, encode func(T) R, decode func(R) T) (*Session[T, R], error) {
	s := &Session[T, R]{ctx: ctx, workers: workers, encode: encode, decode: decode}
	if ck != nil {
		j, err := ck.Open()
		if err != nil {
			return nil, err
		}
		s.j, s.limit = j, int64(ck.Limit)
	}
	return s, nil
}

// Run executes batch b, calling fn for every sample not already in the
// journal, and returns the samples' values in batch order with the
// stream seed each one drew from (seeds is nil in sequential mode).
//
// Sequential mode — Workers <= 1, no checkpoint and a Flat batch —
// threads one stream through the samples in order. Every other mode
// hands each sample its own stream, so a value depends only on the
// sample's seed: never on worker count, scheduling, or which samples a
// previous, interrupted invocation already journaled. That is why a
// checkpointed campaign resumes byte-identically.
//
// Errors: ErrPartial when Checkpoint.Limit stopped the session short
// of the batch (the journal holds every sample that ran); an
// *Interrupted after ctx is done (in-flight samples drained and were
// journaled whole, and the journal is closed).
func (s *Session[T, R]) Run(b Batch, fn func(key int, r *rng.Rand) T) (out []T, seeds []uint64, err error) {
	out = make([]T, b.n)
	if s.j == nil && s.workers <= 1 && b.seeds == nil {
		r := rng.New(b.seed)
		err = forEach(s.ctx, 1, b.n, func(i int) error {
			out[i] = fn(i, r)
			return nil
		})
		return out, nil, s.interrupted(err)
	}
	seeds = b.seeds
	if seeds == nil {
		master := rng.New(b.seed)
		seeds = make([]uint64, b.n)
		for i := range seeds {
			seeds[i] = master.Uint64()
		}
	}
	var short atomic.Bool
	err = forEach(s.ctx, s.workers, b.n, func(i int) error {
		key := i
		if b.keys != nil {
			key = b.keys[i]
		}
		if s.j != nil {
			if raw, ok := s.j.Done(key); ok {
				var rec R
				if err := json.Unmarshal(raw, &rec); err != nil {
					return fmt.Errorf("exec: corrupt checkpoint record %d: %w", key, err)
				}
				out[i] = s.decode(rec)
				return nil
			}
			if s.limit > 0 && s.ran.Add(1) > s.limit {
				short.Store(true) // deterministic interruption: a resume runs it
				return nil
			}
		}
		v := fn(key, rng.New(seeds[i]))
		if s.j != nil {
			if err := s.j.Record(key, s.encode(v)); err != nil {
				return err
			}
		}
		out[i] = v
		return nil
	})
	if err == nil && short.Load() {
		err = ErrPartial
	}
	return out, seeds, s.interrupted(err)
}

// interrupted turns a context error into *Interrupted, closing the
// session first so the Journaled count it reports is durable.
func (s *Session[T, R]) interrupted(err error) error {
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	in := &Interrupted{Journaled: -1, Cause: err}
	if s.j != nil {
		in.Journaled = s.j.Len()
		if deg, _ := s.Close(); deg {
			in.Journaled = 0 // nothing past the last durable flush is promised
		}
	}
	return in
}

// Progressf renders the campaign's live status line
// (telemetry.Progressf); Close ends it.
func (s *Session[T, R]) Progressf(format string, args ...any) {
	s.drew.Store(true)
	telemetry.Progressf(format, args...)
}

// Close ends the session on every exit path: it flushes, syncs and
// closes the journal and clears the progress line. It reports whether
// the journal degraded (see Journal) and the rendered cause — campaign
// results carry both as infrastructure status. Safe to call twice.
func (s *Session[T, R]) Close() (degraded bool, cause string) {
	if s.drew.Load() {
		telemetry.ProgressDone()
	}
	if s.j == nil {
		return false, ""
	}
	s.j.Close() // I/O failure surfaces through Degraded, not here
	if deg, err := s.j.Degraded(); deg {
		return true, fmt.Sprint(err)
	}
	return false, ""
}

// MapSlice applies f to each element of v, keeping nil as nil. Journal
// records carry float slices through it as IEEE-754 bit patterns
// (MapSlice(v, math.Float64bits)): JSON has no NaN or Inf, and clamping
// them would break byte-identical resume. Results clamp their kept
// outputs through it for JSON rendering.
func MapSlice[A, B any](v []A, f func(A) B) []B {
	if v == nil {
		return nil
	}
	out := make([]B, len(v))
	for i, x := range v {
		out[i] = f(x)
	}
	return out
}
