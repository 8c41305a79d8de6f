package stats

import (
	"math"
	"testing"
)

func TestWilsonCIEdges(t *testing.T) {
	// n == 0: no data, vacuous interval.
	if lo, hi := WilsonCI(0, 0, 0.95); lo != 0 || hi != 1 {
		t.Errorf("WilsonCI(0,0) = [%v,%v], want [0,1]", lo, hi)
	}
	// k == 0: exact zero lower bound, but a POSITIVE upper bound even
	// for tiny n — the interval must not collapse like Wald's does.
	for _, n := range []int64{1, 2, 3, 5, 10, 100} {
		lo, hi := WilsonCI(0, n, 0.95)
		if lo != 0 {
			t.Errorf("WilsonCI(0,%d) lower = %v, want 0", n, lo)
		}
		if hi <= 0 || hi > 1 {
			t.Errorf("WilsonCI(0,%d) upper = %v, want (0,1]", n, hi)
		}
		// k == n mirrors k == 0.
		lo2, hi2 := WilsonCI(n, n, 0.95)
		if hi2 != 1 {
			t.Errorf("WilsonCI(%d,%d) upper = %v, want 1", n, n, hi2)
		}
		if math.Abs(lo2-(1-hi)) > 1e-12 {
			t.Errorf("WilsonCI(%d,%d) lower = %v, want mirror of %v", n, n, lo2, 1-hi)
		}
	}
	// The k == 0 upper bound shrinks as n grows.
	_, prev := WilsonCI(0, 1, 0.95)
	for _, n := range []int64{2, 5, 20, 100, 1000} {
		_, hi := WilsonCI(0, n, 0.95)
		if hi >= prev {
			t.Errorf("WilsonCI(0,%d) upper %v did not shrink below %v", n, hi, prev)
		}
		prev = hi
	}
}

func TestWilsonCIInterior(t *testing.T) {
	// Contains the point estimate and is inside [0,1].
	for _, tc := range [][2]int64{{1, 2}, {3, 7}, {50, 100}, {1, 1000}, {999, 1000}} {
		k, n := tc[0], tc[1]
		lo, hi := WilsonCI(k, n, 0.95)
		p := float64(k) / float64(n)
		if !(lo < p && p < hi) {
			t.Errorf("WilsonCI(%d,%d) = [%v,%v] does not contain %v", k, n, lo, hi, p)
		}
		if lo < 0 || hi > 1 {
			t.Errorf("WilsonCI(%d,%d) = [%v,%v] leaves [0,1]", k, n, lo, hi)
		}
		// Higher confidence widens the interval.
		lo99, hi99 := WilsonCI(k, n, 0.99)
		if hi99-lo99 <= hi-lo {
			t.Errorf("WilsonCI(%d,%d) 99%% interval not wider than 95%%", k, n)
		}
	}
}

func TestWilsonCIPanics(t *testing.T) {
	for _, tc := range [][2]int64{{-1, 5}, {6, 5}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WilsonCI(%d,%d) did not panic", tc[0], tc[1])
				}
			}()
			WilsonCI(tc[0], tc[1], 0.95)
		}()
	}
}

func TestPoissonCIEdges(t *testing.T) {
	// k == 0: an empty observation still excludes large rates.
	lo, hi := PoissonCI(0, 0.95)
	if lo != 0 {
		t.Errorf("PoissonCI(0) lower = %v, want 0", lo)
	}
	if hi <= 0 || hi > 10 {
		t.Errorf("PoissonCI(0) upper = %v, want a small positive bound", hi)
	}
	// Tiny counts: interval brackets k and is monotone in k.
	prevHi := hi
	for _, k := range []int64{1, 2, 3, 10} {
		lo, hi := PoissonCI(k, 0.95)
		if !(lo < float64(k) && float64(k) < hi) {
			t.Errorf("PoissonCI(%d) = [%v,%v] does not bracket %d", k, lo, hi, k)
		}
		if hi <= prevHi {
			t.Errorf("PoissonCI(%d) upper %v not above PoissonCI(%d)'s %v", k, hi, k-1, prevHi)
		}
		prevHi = hi
	}
}

func TestWilsonSamplesFor(t *testing.T) {
	for _, tc := range []struct {
		p, hw float64
	}{{0.5, 0.05}, {0.5, 0.01}, {0.1, 0.02}, {0.0, 0.01}, {1.0, 0.01}, {0.7, 0.005}} {
		n := WilsonSamplesFor(tc.p, tc.hw, 0.95)
		if n < 1 {
			t.Fatalf("WilsonSamplesFor(%v,%v) = %d", tc.p, tc.hw, n)
		}
		// n achieves the half-width, n-1 does not (when n > 1).
		z := zFor(0.95)
		width := func(m int64) float64 {
			lo, hi := wilsonBounds(tc.p, float64(m), z)
			return (hi - lo) / 2
		}
		if got := width(n); got > tc.hw {
			t.Errorf("WilsonSamplesFor(%v,%v) = %d but half-width %v > target", tc.p, tc.hw, n, got)
		}
		if n > 1 {
			if got := width(n - 1); got <= tc.hw {
				t.Errorf("WilsonSamplesFor(%v,%v) = %d but %d already suffices (%v)", tc.p, tc.hw, n, n-1, got)
			}
		}
	}
	// Worst case p = 0.5 needs roughly (z/hw)^2/4 samples.
	n := WilsonSamplesFor(0.5, 0.01, 0.95)
	if n < 9000 || n > 11000 {
		t.Errorf("WilsonSamplesFor(0.5, 0.01) = %d, want ~9600", n)
	}
}
