package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: streams diverged: %x vs %x", i, av, bv)
		}
	}
}

func TestSeedsProduceDistinctStreams(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		t.Fatal("zero seed produced all-zero state")
	}
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stream looks degenerate")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 10, 1 << 20, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sumsq += f * f
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("variance = %v, want ~1/12", variance)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		f := r.NormFloat64()
		sum += f
		sumsq += f * f
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

// Property: Uint64n(n) < n for arbitrary nonzero n.
func TestUint64nPropertyBounded(t *testing.T) {
	r := New(43)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: same seed, same k-th output, for arbitrary seeds.
func TestDeterminismProperty(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < int(steps); i++ {
			a.Uint64()
			b.Uint64()
		}
		return a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
