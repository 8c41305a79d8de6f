package exec

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
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
