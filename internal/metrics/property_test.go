package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mixedrel/internal/rng"
)

// Property: a TRE curve is monotone non-increasing in FIT and monotone
// non-decreasing in reduction, for arbitrary error populations and
// threshold sets.
func TestTRECurveMonotoneProperty(t *testing.T) {
	r := rng.New(61)
	prop := func(seed uint64, nErr, nThr uint8) bool {
		rr := rng.New(seed ^ r.Uint64())
		errs := make([]float64, int(nErr))
		for i := range errs {
			errs[i] = math.Exp(rr.NormFloat64() * 5) // wide spread
		}
		thresholds := make([]float64, int(nThr%12)+2)
		for i := range thresholds {
			thresholds[i] = rr.Float64() * 0.2
		}
		sort.Float64s(thresholds)
		pts := TRECurve(100, errs, thresholds)
		for i := 1; i < len(pts); i++ {
			if pts[i].FIT > pts[i-1].FIT+1e-9 {
				return false
			}
			if pts[i].Reduction+1e-9 < pts[i-1].Reduction {
				return false
			}
		}
		for _, p := range pts {
			if p.Reduction < -1e-9 || p.Reduction > 1+1e-9 {
				return false
			}
			if p.FIT < -1e-9 || p.FIT > 100+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: FIT + reduction are consistent: FIT = FIT0 * (1 - Reduction).
func TestTRECurveConsistencyProperty(t *testing.T) {
	r := rng.New(67)
	prop := func(seed uint64, n uint8) bool {
		rr := rng.New(seed ^ r.Uint64())
		errs := make([]float64, int(n))
		for i := range errs {
			errs[i] = rr.Float64()
		}
		for _, p := range TRECurve(7, errs, nil) {
			if math.Abs(p.FIT-7*(1-p.Reduction)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: MEBF is inversely proportional to both FIT and time.
func TestMEBFScalingProperty(t *testing.T) {
	prop := func(fitRaw, timeRaw uint16) bool {
		fit := float64(fitRaw%1000) + 1
		secs := (float64(timeRaw%1000) + 1) / 100
		base := MEBF(fit, secsToDuration(secs))
		doubleFIT := MEBF(2*fit, secsToDuration(secs))
		doubleTime := MEBF(fit, secsToDuration(2*secs))
		return math.Abs(base/doubleFIT-2) < 1e-9 && math.Abs(base/doubleTime-2) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func secsToDuration(s float64) (d time.Duration) {
	return time.Duration(s * float64(time.Second))
}
