//go:build overhead

package mixedrel_test

import (
	"os"
	"runtime"
	"strconv"
	"testing"
)

// The overhead gates time a campaign benchmark against the same
// campaign with one mechanism switched on: testing.Benchmark on the two
// in alternating order, overheadPairs times, judged by overheadVerdict.
// They run under the overhead build tag, through make, which fixes each
// measurement at 3000 campaigns (about 10 s per gate on two cores):
//
//	make bench-telemetry   # telemetry fully on: < 2%
//	make bench-chaos       # disarmed chaos seam: < 1%
//
// OVERHEAD_GATE, a percentage, replaces the bound (CI uses 10).

// overheadPairs is odd so the median is one measured pair.
const overheadPairs = 21

func TestTelemetryOverhead(t *testing.T) {
	gateOverhead(t, 2, BenchmarkInjectionCampaign, BenchmarkInjectionCampaignTelemetry)
}

func TestChaosSeamOverhead(t *testing.T) {
	gateOverhead(t, 1, BenchmarkInjectionCampaignCheckpoint, BenchmarkInjectionCampaignChaosOff)
}

func gateOverhead(t *testing.T, gate float64, base, treated func(*testing.B)) {
	if s := os.Getenv("OVERHEAD_GATE"); s != "" {
		g, err := strconv.ParseFloat(s, 64)
		if err != nil || !(g >= 0) {
			t.Fatalf("OVERHEAD_GATE=%q: want a non-negative percentage", s)
		}
		gate = g
	}
	// One P: on a shared two-core host the second core's scheduling
	// noise spreads the per-pair ratios by several percent, more than
	// the bounds; on one P they stay within about 1%.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nsPerOp := func(f func(*testing.B)) float64 {
		r := testing.Benchmark(f)
		if r.N == 0 {
			t.Fatal("benchmark failed")
		}
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	b, tr := make([]float64, overheadPairs), make([]float64, overheadPairs)
	for i := range b {
		if i%2 == 0 { // alternate which side runs first
			b[i], tr[i] = nsPerOp(base), nsPerOp(treated)
		} else {
			tr[i], b[i] = nsPerOp(treated), nsPerOp(base)
		}
	}
	ratios, median, pass := overheadVerdict(b, tr, gate)
	for i, r := range ratios {
		t.Logf("pair %2d: %9.0f -> %9.0f ns/op, ratio %.4f", i, b[i], tr[i], r)
	}
	t.Logf("median ratio %.4f, gate %.4f", median, 1+gate/100)
	if !pass {
		t.Errorf("median overhead %+.2f%% exceeds the %g%% gate", 100*(median-1), gate)
	}
}
