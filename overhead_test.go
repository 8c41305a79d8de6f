package mixedrel_test

import (
	"testing"

	"mixedrel/internal/stats"
)

// overheadVerdict decides an overhead gate from paired timings: base[i]
// and treated[i] are the ns/op of the bare and the instrumented
// benchmark measured back to back. It passes when the median per-pair
// ratio treated/base is at most 1 + gatePct/100. Pairing cancels drift
// slower than one pair; the median ignores pairs a burst of noise
// spoiled.
func overheadVerdict(base, treated []float64, gatePct float64) (ratios []float64, median float64, pass bool) {
	ratios = make([]float64, len(base))
	for i := range base {
		ratios[i] = treated[i] / base[i]
	}
	median = stats.Quantile(ratios, 0.5)
	return ratios, median, median <= 1+gatePct/100
}

// TestOverheadVerdict: a median ratio at or under the bound passes, one
// over it fails, an outlier pair does not move it, and a pair whose two
// sides both ran slow reads as no overhead.
func TestOverheadVerdict(t *testing.T) {
	base := []float64{100, 100, 100, 200, 100}
	for _, c := range []struct {
		treated      []float64
		gate, median float64
		pass         bool
	}{
		{[]float64{100, 100, 100, 200, 100}, 0, 1, true},
		{[]float64{102, 102, 101, 206, 150}, 2, 1.02, true},
		{[]float64{103, 103, 102, 208, 100}, 2, 1.03, false},
		{[]float64{100, 100, 900, 200, 100}, 1, 1, true},
		{[]float64{110, 109, 111, 220, 111}, 10, 1.10, true},
		{[]float64{111, 111, 111, 222, 111}, 10, 1.11, false},
	} {
		if _, median, pass := overheadVerdict(base, c.treated, c.gate); median != c.median || pass != c.pass {
			t.Errorf("%v at %g%%: median %v pass %v; want %v %v", c.treated, c.gate, median, pass, c.median, c.pass)
		}
	}
}
