// Package exec is the campaign execution engine: a shared bounded
// scheduler for cross-configuration parallelism, the campaign driver
// that runs every injection and beam sample, and a process-wide memo
// cache of fault-free campaign artifacts (golden outputs, operation
// profiles, pristine encoded inputs).
//
// Determinism is the organizing constraint. Every parallel construct in
// this package is designed so that results are bitwise-identical to the
// sequential order of the same work:
//
//   - ForEach runs index-addressed jobs; callers store job i's result in
//     slot i, so assembly order never depends on scheduling.
//   - Session (the campaign driver) hands each sample the random stream
//     of its seed, derived from the campaign seed and the sample's
//     address alone — never from goroutine interleaving or from which
//     samples a checkpoint journal already holds. The one exception is
//     sequential mode (Workers <= 1, no checkpoint), which threads a
//     single stream through a flat campaign in order. A sample is split
//     into a draw (all of its randomness, returned as a spec) and a run
//     (none), so sequential mode still runs on the shared pool: draws
//     happen one at a time in index order under a lock, runs happen
//     anywhere. Which mode runs is decided by the workers parameter and
//     the checkpoint, never by pool occupancy, so a given configuration
//     always produces the same sample.
//
// The scheduler is a single process-wide pool of helper slots rather
// than per-call-site worker counts, so nested fan-out (experiments over
// configurations over trials) cannot multiply into unbounded goroutines:
// a worker that cannot get a slot simply runs jobs inline on its own
// goroutine. Slots move to where work still runs: a caller short of
// helpers tries again between jobs, and a caller with no jobs left
// lends its own slot while it waits for its helpers, so the last cell
// of a grid spreads its samples over the cores the other cells freed.
// Acquisition never blocks except for that lender taking a slot back,
// which waits only on goroutines that are running jobs, so nested
// fan-out cannot deadlock.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// slots is the process-wide helper-slot pool that gates helper
// goroutines across every concurrent ForEach. A ForEach caller is a
// running goroutine already; each helper it starts takes a slot. busy
// counts the slots in use: helpers running, minus callers that lent
// their own goroutine's slot while they wait idle for their helpers.
// A helper starts only while busy < size-1, so at most size goroutines
// run ForEach jobs at once.
type slots struct {
	size int
	mu   sync.Mutex
	free sync.Cond // signalled when busy drops
	busy int       // guarded by mu
}

func newSlots(size int) *slots {
	p := &slots{size: size}
	p.free.L = &p.mu
	return p
}

// tryAcquire claims a slot if one is free, without waiting.
func (p *slots) tryAcquire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.busy >= p.size-1 {
		return false
	}
	p.busy++
	return true
}

// acquire claims a slot, waiting until one is free.
func (p *slots) acquire() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.busy >= p.size-1 {
		p.free.Wait()
	}
	p.busy++
}

// release returns a slot.
func (p *slots) release() {
	p.mu.Lock()
	p.busy--
	p.mu.Unlock()
	p.free.Signal()
}

// pool is the current slot pool; SetMaxWorkers replaces it.
var pool atomic.Pointer[slots]

func init() { pool.Store(newSlots(runtime.GOMAXPROCS(0))) }

// MaxWorkers returns the process-wide parallelism bound.
func MaxWorkers() int { return pool.Load().size }

// SetMaxWorkers bounds total parallelism across all concurrent ForEach
// calls to n goroutines (minimum 1, i.e. fully sequential). It replaces
// the slot pool, so it should be called at startup or between runs, not
// while work is in flight (in-flight calls drain against the pool they
// started on).
func SetMaxWorkers(n int) {
	if n < 1 {
		n = 1
	}
	pool.Store(newSlots(n))
}

// ForEach runs fn(0..n-1), using up to workers goroutines (the caller
// plus up to workers-1 helpers, subject to the process-wide slot pool).
// workers <= 1 runs inline. On error, remaining unstarted jobs are
// cancelled (in-flight jobs run to completion) and the lowest-indexed
// error among jobs that ran is returned. fn must be safe for concurrent
// invocation when workers > 1.
func ForEach(workers, n int, fn func(i int) error) error {
	return forEach(nil, workers, n, fn)
}

// ForEachCtx is ForEach under a context: once ctx is done, no new job
// starts — in-flight jobs drain to completion, so every job either ran
// fully or not at all — and ctx.Err() is returned (job errors that
// happened before cancellation win). A nil ctx is ForEach. The
// cancellation check is a non-blocking channel read per job dispatch,
// nothing per-operation, so campaigns pay for cancellability only at
// sample granularity.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return forEach(ctx, workers, n, fn)
}

// cancelled is the non-blocking poll of a context's done channel.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		ran := 0
		for i := 0; i < n; i++ {
			if cancelled(done) {
				mJobs.Add(uint64(ran))
				mCancelledJobs.Add(uint64(n - i))
				return ctx.Err()
			}
			ran++
			if err := fn(i); err != nil {
				mJobs.Add(uint64(ran))
				return err
			}
		}
		mJobs.Add(uint64(ran))
		return nil
	}

	var (
		next     atomic.Int64
		ranTotal atomic.Int64
		stop     atomic.Bool
		ctxStop  atomic.Bool
		errMu    sync.Mutex
		errIdx   = n
		firstErr error
		wg       sync.WaitGroup
		helpers  int         // helpers started; only the caller's goroutine touches it
		join     func() bool // starts one more helper if the pool has a free slot
	)
	next.Store(-1)
	// worker claims and runs jobs until none is left. The caller's
	// worker also runs late: while the call is short of helpers, it
	// tries once between jobs to claim a slot another call released,
	// so a campaign that started while the pool was busy still spreads
	// over every core once the pool frees.
	worker := func(late bool) {
		// Job counting is batched per worker: one atomic add at exit
		// instead of one per job, so instrumentation cost stays off the
		// per-sample path.
		ran := 0
		defer func() {
			mJobs.Add(uint64(ran))
			ranTotal.Add(int64(ran))
		}()
		for !stop.Load() {
			if cancelled(done) {
				ctxStop.Store(true)
				stop.Store(true)
				return
			}
			i := int(next.Add(1))
			if i >= n {
				return
			}
			if late && i+1 < n && join() {
				late = helpers < workers-1
			}
			ran++
			if err := fn(i); err != nil {
				errMu.Lock()
				if i < errIdx {
					errIdx, firstErr = i, err
				}
				errMu.Unlock()
				stop.Store(true)
				return
			}
		}
	}

	p := pool.Load() // every slot this call takes or lends is this pool's
	join = func() bool {
		if !p.tryAcquire() {
			return false
		}
		helpers++
		wg.Add(1)
		mHelpers.Add(1)
		go func() {
			defer func() {
				mHelpers.Add(-1)
				p.release()
				wg.Done()
			}()
			worker(false)
		}()
		return true
	}
	for helpers < workers-1 {
		if !join() {
			mHelpersDenied.Inc() // once per call: the retries below are not counted
			break
		}
	}
	worker(helpers < workers-1)
	if helpers > 0 {
		// Idle until the helpers finish: lend this goroutine's slot, so
		// work still running in them (a campaign inside a grid cell)
		// can start a helper on it, and take a slot back before
		// returning to code that runs on.
		p.release()
		wg.Wait()
		p.acquire()
	}
	if firstErr != nil {
		return firstErr
	}
	if ctxStop.Load() {
		if skipped := int64(n) - ranTotal.Load(); skipped > 0 {
			mCancelledJobs.Add(uint64(skipped))
		}
		return ctx.Err()
	}
	return nil
}
