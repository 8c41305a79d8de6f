package exec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachMatchesSequential(t *testing.T) {
	want := make([]int, 100)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{0, 1, 2, 4, 8} {
		got := make([]int, len(want))
		if err := ForEach(workers, len(got), func(i int) error {
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachReportsLowestIndexedError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := ForEach(workers, 50, func(i int) error {
			if i == 7 || i == 33 {
				return fmt.Errorf("job %d: %w", i, boom)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		// Job 7 always runs (it is before 33 in claim order), so the
		// lowest-indexed error among jobs that ran is job 7's.
		if got := err.Error(); got != "job 7: boom" {
			t.Fatalf("workers=%d: err = %q, want job 7's", workers, got)
		}
	}
}

func TestForEachErrorCancelsRemaining(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	err := ForEach(1, 1000, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("sequential mode ran %d jobs after error at index 3, want 4", n)
	}
}

func TestForEachNestedDoesNotDeadlock(t *testing.T) {
	old := MaxWorkers()
	SetMaxWorkers(3)
	defer SetMaxWorkers(old)

	var sum atomic.Int64
	err := ForEach(4, 8, func(i int) error {
		return ForEach(4, 8, func(j int) error {
			sum.Add(int64(i*8 + j))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum.Load(), int64(64*63/2); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestSetMaxWorkersFloor(t *testing.T) {
	old := MaxWorkers()
	defer SetMaxWorkers(old)
	SetMaxWorkers(-5)
	if got := MaxWorkers(); got != 1 {
		t.Fatalf("MaxWorkers after SetMaxWorkers(-5) = %d, want 1", got)
	}
}

// TestForEachLateJoin: a call that starts while another goroutine holds
// the pool's only slot runs inline, and once the slot is released after
// job k, a helper joins and runs later jobs. The refusal at the
// start counts once in exec_helpers_denied, not once per retry.
func TestForEachLateJoin(t *testing.T) {
	old := MaxWorkers()
	defer SetMaxWorkers(old)
	SetMaxWorkers(2)

	held := make(chan struct{})
	release := make(chan struct{})
	released := make(chan struct{})
	go func() {
		p := pool.Load()
		ok := p.tryAcquire()
		if !ok {
			t.Error("the idle pool refused its only slot")
		}
		close(held)
		<-release
		if ok {
			p.release()
		}
		close(released)
	}()
	<-held

	const n, k = 12, 4
	denied := mHelpersDenied.Load()
	var (
		inFlight atomic.Int64
		overlap  atomic.Bool
		started  = make(chan struct{})
	)
	err := ForEach(2, n, func(i int) error {
		if inFlight.Add(1) > 1 {
			overlap.Store(true)
			if i <= k {
				t.Errorf("job %d ran beside another while the slot was held", i)
			}
		}
		defer inFlight.Add(-1)
		switch i {
		case k:
			close(release)
			<-released
		case k + 1:
			// The caller claimed this job, then joined a helper: wait
			// for the helper's first job to start.
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Error("no helper joined after the slot was released")
			}
		case k + 2:
			close(started)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !overlap.Load() {
		t.Error("jobs never overlapped after the late join")
	}
	if d := mHelpersDenied.Load() - denied; d != 1 {
		t.Errorf("exec_helpers_denied rose by %d over one refused call, want 1", d)
	}
}

// inUse reads p's busy count.
func inUse(p *slots) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.busy
}

// goid returns the calling goroutine's id, parsed from its stack
// header ("goroutine 7 [running]:").
func goid() string {
	b := make([]byte, 64)
	return strings.Fields(string(b[:runtime.Stack(b, false)]))[1]
}

// TestForEachLendsIdleCallerSlot: a caller that has run out of jobs
// lends its slot while it waits for its helpers, so a ForEach nested in
// a helper's job starts a helper of its own. Pool 2: the outer call's
// helper holds the only slot, and the nested call can get one only from
// the idle outer caller.
func TestForEachLendsIdleCallerSlot(t *testing.T) {
	old := MaxWorkers()
	defer SetMaxWorkers(old)
	SetMaxWorkers(2)
	p := pool.Load()
	caller := goid()
	nestedStarted := make(chan struct{})
	wait := func(cond func() bool, what string) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error(what)
				return
			}
		}
	}
	err := ForEach(2, 2, func(int) error {
		if goid() == caller {
			// Keep the caller from claiming the other job too.
			<-nestedStarted
			return nil
		}
		close(nestedStarted)
		started := make(chan struct{})
		return ForEach(2, 8, func(i int) error {
			switch i {
			case 0:
				// Lent, and either still free or already the nested helper's.
				wait(func() bool { return inUse(p) <= 0 || mHelpers.Load() == 2 },
					"the idle caller never lent its slot")
			case 1:
				select {
				case <-started:
				case <-time.After(10 * time.Second):
					t.Error("the nested call never started a helper")
				}
			case 2:
				close(started)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := inUse(p); b != 0 {
		t.Errorf("%d slots still in use after every call returned", b)
	}
}
