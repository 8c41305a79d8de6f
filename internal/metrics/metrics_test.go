package metrics

import (
	"math"
	"testing"
	"time"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
)

func TestMEBF(t *testing.T) {
	// FIT 2 (errors per unit time), 0.5s per execution: errors per
	// execution = 1, so MEBF = 1.
	if got := MEBF(2, 500*time.Millisecond); math.Abs(got-1) > 1e-12 {
		t.Errorf("MEBF = %v, want 1", got)
	}
	// Halving the execution time doubles MEBF.
	if got := MEBF(2, 250*time.Millisecond); math.Abs(got-2) > 1e-12 {
		t.Errorf("MEBF = %v, want 2", got)
	}
	if !math.IsInf(MEBF(0, time.Second), 1) {
		t.Error("zero FIT should give infinite MEBF")
	}
	if !math.IsInf(MEBF(1, 0), 1) {
		t.Error("zero time should give infinite MEBF")
	}
}

func TestTRECurveBasics(t *testing.T) {
	relErrs := []float64{0.00005, 0.005, 0.05, 0.5, math.Inf(1)}
	pts := TRECurve(10, relErrs, []float64{0, 0.001, 0.01, 0.1, 1})
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	// TRE=0: everything above zero is still an error.
	if pts[0].FIT != 10 || pts[0].Reduction != 0 {
		t.Errorf("TRE=0 point %+v", pts[0])
	}
	// TRE=0.001 drops the 0.00005 error: 4/5 remain.
	if math.Abs(pts[1].FIT-8) > 1e-9 {
		t.Errorf("TRE=0.001 FIT %v, want 8", pts[1].FIT)
	}
	// TRE=1 leaves only the Inf error.
	if math.Abs(pts[4].FIT-2) > 1e-9 || math.Abs(pts[4].Reduction-0.8) > 1e-9 {
		t.Errorf("TRE=1 point %+v", pts[4])
	}
	// Monotone non-increasing FIT.
	for i := 1; i < len(pts); i++ {
		if pts[i].FIT > pts[i-1].FIT {
			t.Errorf("TRE curve not monotone at %d", i)
		}
	}
}

func TestTRECurveBoundaryExclusive(t *testing.T) {
	// An error exactly at the tolerance is tolerated (<= TRE is ok).
	pts := TRECurve(1, []float64{0.01}, []float64{0.01})
	if pts[0].FIT != 0 {
		t.Errorf("error exactly at TRE should be tolerated, FIT %v", pts[0].FIT)
	}
}

func TestTRECurveEmpty(t *testing.T) {
	pts := TRECurve(5, nil, nil)
	if len(pts) != len(DefaultTREs) {
		t.Fatalf("default thresholds not used")
	}
	for _, p := range pts {
		if p.FIT != 0 && p.TRE > 0 {
			t.Errorf("no SDCs: residual FIT should be 0 at TRE %v", p.TRE)
		}
	}
}

func TestClassifyMNIST(t *testing.T) {
	m := kernels.NewMNIST(2, 99)
	golden := kernels.Decode(fp.Double, kernels.Golden(m, fp.Double))
	// A faulty output identical to golden except a tiny probability
	// wiggle that does not change the argmax: tolerable.
	tolerable := append([]float64(nil), golden...)
	tolerable[1] += 1e-6
	// A faulty output with image 0's top class forced elsewhere.
	critical := append([]float64(nil), golden...)
	top := kernels.Argmax(critical[:10])
	critical[top] = -1
	critical[(top+1)%10] = 2

	res := ClassifyMNIST(m, golden, [][]float64{tolerable, critical})
	if res.SDCs != 2 || res.Tolerable != 1 || res.Critical != 1 {
		t.Errorf("classification %+v", res)
	}
	if res.CriticalFraction() != 0.5 {
		t.Errorf("critical fraction %v", res.CriticalFraction())
	}
}

func TestMNISTCriticalityEmpty(t *testing.T) {
	var c MNISTCriticality
	if c.CriticalFraction() != 0 {
		t.Error("empty criticality should be 0")
	}
}

func TestClassifyYOLO(t *testing.T) {
	y := kernels.NewYOLO(2026)
	golden := kernels.Decode(fp.Double, kernels.Golden(y, fp.Double))

	// Tolerable: tiny head perturbation.
	tolerable := append([]float64(nil), golden...)
	tolerable[len(tolerable)-1] += 1e-9

	// Detection change: suppress an active cell's objectness.
	suppress := append([]float64(nil), golden...)
	dets := y.Detections(golden)
	if len(dets) == 0 {
		t.Fatal("no golden detections")
	}
	for cell := 0; cell < kernels.YOLOGrid*kernels.YOLOGrid; cell++ {
		if 1/(1+math.Exp(-suppress[cell])) >= dets[len(dets)-1].Score {
			suppress[cell] = -40
			break
		}
	}

	res := ClassifyYOLO(y, golden, [][]float64{tolerable, suppress})
	if res.SDCs != 2 {
		t.Fatalf("SDCs %d", res.SDCs)
	}
	if res.Tolerable != 1 {
		t.Errorf("tolerable %d, want 1", res.Tolerable)
	}
	if res.Detection+res.Classification != 1 {
		t.Errorf("changed %d+%d, want 1", res.Detection, res.Classification)
	}
	tf, df, cf := res.Fractions()
	if math.Abs(tf+df+cf-1) > 1e-12 {
		t.Errorf("fractions do not sum to 1: %v %v %v", tf, df, cf)
	}
}

func TestYOLOCriticalityEmpty(t *testing.T) {
	var c YOLOCriticality
	tf, df, cf := c.Fractions()
	if tf != 0 || df != 0 || cf != 0 {
		t.Error("empty fractions should be 0")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != "inf" {
		t.Error("division by zero should format as inf")
	}
	if Ratio(3, 2) != "1.50" {
		t.Errorf("Ratio(3,2) = %q", Ratio(3, 2))
	}
}
