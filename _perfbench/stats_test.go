package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true},
		{100, 90, true}, {999, 90, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok {
			// The rule itself: at least ten samples beyond the percentile.
			if beyond := float64(tc.n) * (1 - got/100); beyond < 10-1e-9 {
				t.Errorf("n=%d: p%g leaves %g samples beyond it", tc.n, got, beyond)
			}
		}
	}
}

func TestTailValue(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 .. 1, unsorted on purpose
	}
	v, p := tail(xs)
	if p != 99 || v != 990 {
		t.Fatalf("tail of 1..1000 = %g at p%g, want 990 at p99", v, p)
	}
	v, p = tail([]float64{3, 1, 2})
	if p != 100 || v != 3 {
		t.Fatalf("tail of a short sample = %g at p%g, want its maximum", v, p)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4) (exclusive method) on known inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
		{[]float64{1, 2, 4, 8}, 1.25, 3, 7},
		// statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
		{[]float64{7, 5}, 4.5, 6, 7.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("median of odd or even sample is wrong")
	}
}

func TestPairWins(t *testing.T) {
	parent := []float64{10, 10, 10, 10}
	change := []float64{9, 11, 10, 8}
	w, l, ties := pairWins(parent, change, true)
	if w != 2 || l != 1 || ties != 1 {
		t.Errorf("lower-better pairWins = %d/%d/%d, want 2/1/1", w, l, ties)
	}
	w, l, ties = pairWins(parent, change, false)
	if w != 1 || l != 2 || ties != 1 {
		t.Errorf("higher-better pairWins = %d/%d/%d, want 1/2/1", w, l, ties)
	}
	// Unequal lengths pair only the common prefix.
	if w, l, ties = pairWins(parent, change[:2], true); w+l+ties != 2 {
		t.Errorf("pairWins over a short change set counted %d pairs", w+l+ties)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	same := []float64{100, 100, 101, 99, 100, 102, 98, 100, 99, 101}
	slower := []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}
	if v := verdict(parent, faster, true, 0.1); v != verdictImproved {
		t.Errorf("faster change: %s", v)
	}
	if v := verdict(parent, same, true, 0.1); v != verdictNoWorse {
		t.Errorf("same change: %s", v)
	}
	if v := verdict(parent, slower, true, 0.1); v != verdictWorse {
		t.Errorf("slower change: %s", v)
	}
	// Higher-better: the faster times read as a throughput drop.
	if v := verdict(parent, faster, false, 0.1); v != verdictWorse {
		t.Errorf("throughput drop: %s", v)
	}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}
	if v := verdict(noisy, same, true, 0.1); v != verdictUnresolved {
		t.Errorf("parent spread above the bound: %s", v)
	}
	if v := verdict(noisy, []float64{10, 11, 12, 10, 11, 12, 10, 11, 12, 10}, true, 0.1); v != verdictImproved {
		t.Errorf("change better than every noisy parent run: %s", v)
	}
}

// TestUnitScale: a unit's times are divided by the mean slowdown of the
// reference runs that bracket it, and its raw wall time is kept.
func TestUnitScale(t *testing.T) {
	un := &unit{wall: 2500 * time.Millisecond, setups: []time.Duration{500 * time.Millisecond, 250 * time.Millisecond}}
	un.scale(1, 1.5)
	if un.wall != 2*time.Second || un.rawWall != 2500*time.Millisecond || un.slowdown != 1.25 {
		t.Errorf("wall %v, raw %v, slowdown %g; want 2s, 2.5s, 1.25", un.wall, un.rawWall, un.slowdown)
	}
	if un.setups[0] != 400*time.Millisecond || un.setups[1] != 200*time.Millisecond {
		t.Errorf("setups %v; want [400ms 200ms]", un.setups)
	}
}
