package stats

import (
	"math"
	"testing"
)

func TestPoissonCIZeroEvents(t *testing.T) {
	lo, hi := PoissonCI(0, 0.95)
	if lo != 0 {
		t.Errorf("lower bound for 0 events = %v, want 0", lo)
	}
	// The exact 97.5% upper bound for 0 events is -ln(0.025) ~= 3.69.
	if hi < 2.5 || hi > 4.5 {
		t.Errorf("upper bound for 0 events = %v, want ~3.7", hi)
	}
}

func TestPoissonCIContainsCount(t *testing.T) {
	for _, k := range []int64{1, 5, 20, 100, 1000} {
		lo, hi := PoissonCI(k, 0.95)
		if !(lo < float64(k) && float64(k) < hi) {
			t.Errorf("k=%d: CI [%v, %v] does not contain k", k, lo, hi)
		}
		if lo < 0 {
			t.Errorf("k=%d: negative lower bound %v", k, lo)
		}
	}
}

func TestPoissonCINarrowsWithK(t *testing.T) {
	relWidth := func(k int64) float64 {
		lo, hi := PoissonCI(k, 0.95)
		return (hi - lo) / float64(k)
	}
	if !(relWidth(10) > relWidth(100) && relWidth(100) > relWidth(1000)) {
		t.Error("relative CI width should shrink with the count")
	}
}

func TestPoissonCILargeKMatchesNormal(t *testing.T) {
	// For large k the CI approaches k +- 1.96*sqrt(k).
	const k = 10000
	lo, hi := PoissonCI(k, 0.95)
	sd := math.Sqrt(k)
	if math.Abs(lo-(k-1.96*sd)) > 0.05*sd || math.Abs(hi-(k+1.96*sd)) > 0.05*sd {
		t.Errorf("CI [%v, %v] far from normal approximation [%v, %v]",
			lo, hi, k-1.96*sd, k+1.96*sd)
	}
}

func TestPoissonCIPanics(t *testing.T) {
	for _, c := range []struct {
		k    int64
		conf float64
	}{{-1, 0.95}, {1, 0}, {1, 1}, {1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PoissonCI(%d, %v) did not panic", c.k, c.conf)
				}
			}()
			PoissonCI(c.k, c.conf)
		}()
	}
}

func TestNormQuantile(t *testing.T) {
	cases := []struct{ p, z float64 }{
		{0.5, 0}, {0.975, 1.959964}, {0.025, -1.959964},
		{0.84134, 1.0}, {0.999, 3.0902},
	}
	for _, c := range cases {
		if got := normQuantile(c.p); math.Abs(got-c.z) > 5e-3 {
			t.Errorf("normQuantile(%v) = %v, want %v", c.p, got, c.z)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if q := Quantile(s, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(s, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(s, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := Quantile(s, 0.25); q != 2 {
		t.Errorf("q25 = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("quantile of empty sample should be NaN")
	}
	// Input must not be mutated.
	s2 := []float64{3, 1, 2}
	Quantile(s2, 0.5)
	if s2[0] != 3 || s2[1] != 1 || s2[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range quantile did not panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestClampNonFinite(t *testing.T) {
	in := []float64{1, math.Inf(1), math.Inf(-1), math.NaN(), -2}
	out := ClampNonFinite(in)
	if out[0] != 1 || out[4] != -2 {
		t.Error("finite values changed")
	}
	if out[1] != math.MaxFloat64 || out[3] != math.MaxFloat64 {
		t.Error("+Inf/NaN not clamped to +MaxFloat64")
	}
	if out[2] != -math.MaxFloat64 {
		t.Error("-Inf not clamped")
	}
	if math.IsInf(in[1], 0) != true {
		t.Error("input mutated")
	}
}
