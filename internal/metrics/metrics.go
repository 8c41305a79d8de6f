// Package metrics computes the paper's derived reliability measures from
// campaign outputs: Mean Executions Between Failures (MEBF), Tolerated
// Relative Error (TRE) FIT-reduction curves, and the CNN criticality
// classifications (MNIST: tolerable vs critical; YOLO: tolerable /
// detection changed / classification changed).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mixedrel/internal/kernels"
)

// MEBF returns the mean number of correct executions completed between
// failures: the reciprocal of the per-execution error probability
// FIT x execution time (paper Section 3.2, [35]). Units are arbitrary
// but consistent across configurations, like the paper's.
func MEBF(fitSDC float64, execTime time.Duration) float64 {
	secs := execTime.Seconds()
	if fitSDC <= 0 || secs <= 0 {
		return math.Inf(1)
	}
	return 1 / (fitSDC * secs)
}

// TREPoint is one point of a FIT-vs-tolerance curve.
type TREPoint struct {
	// TRE is the tolerated relative error (0.001 = 0.1%).
	TRE float64
	// FIT is the residual FIT counting only SDCs whose worst
	// element-wise relative error exceeds TRE.
	FIT float64
	// Reduction is 1 - FIT/FIT0: the fraction of errors that became
	// tolerable.
	Reduction float64
}

// DefaultTREs are the tolerance levels swept in the paper's figures.
var DefaultTREs = []float64{0, 0.0001, 0.001, 0.01, 0.02, 0.05, 0.1}

// TRECurve computes the FIT reduction as the output-tolerance margin
// grows: an SDC whose corrupted values all lie within TRE of the
// expected values is re-classified as tolerable (paper Figs. 4, 8, 11).
// fitSDC is the campaign's TRE=0 FIT; relErrs holds one max-relative-
// error per observed SDC.
func TRECurve(fitSDC float64, relErrs []float64, tres []float64) []TREPoint {
	if len(tres) == 0 {
		tres = DefaultTREs
	}
	sorted := append([]float64(nil), relErrs...)
	sort.Float64s(sorted)
	n := len(sorted)
	out := make([]TREPoint, 0, len(tres))
	for _, tre := range tres {
		// Count SDCs with relErr > tre (still errors at this margin).
		idx := sort.SearchFloat64s(sorted, tre)
		for idx < n && sorted[idx] == tre {
			idx++
		}
		surviving := n - idx
		var frac float64
		if n > 0 {
			frac = float64(surviving) / float64(n)
		}
		out = append(out, TREPoint{
			TRE:       tre,
			FIT:       fitSDC * frac,
			Reduction: 1 - frac,
		})
	}
	return out
}

// MNISTCriticality classifies the SDCs of an MNIST campaign: an SDC is
// critical when the predicted class of any batch image changed relative
// to the golden prediction, tolerable otherwise (paper Fig. 3).
type MNISTCriticality struct {
	SDCs, Critical, Tolerable int
}

// CriticalFraction returns Critical/SDCs (0 for an empty campaign).
func (c MNISTCriticality) CriticalFraction() float64 {
	if c.SDCs == 0 {
		return 0
	}
	return float64(c.Critical) / float64(c.SDCs)
}

// ClassifyMNIST classifies faulty outputs against the golden output of
// the same precision.
func ClassifyMNIST(m *kernels.MNIST, golden []float64, faulty [][]float64) MNISTCriticality {
	goldenPred := m.Classify(golden)
	res := MNISTCriticality{SDCs: len(faulty)}
	for _, out := range faulty {
		pred := m.Classify(out)
		critical := false
		for i := range pred {
			if pred[i] != goldenPred[i] {
				critical = true
				break
			}
		}
		if critical {
			res.Critical++
		} else {
			res.Tolerable++
		}
	}
	return res
}

// YOLOCriticality tallies the paper's Fig. 11c taxonomy over a
// campaign's SDCs.
type YOLOCriticality struct {
	SDCs int
	// Counts per outcome kind.
	Tolerable, Detection, Classification int
}

// Fractions returns the per-category shares (each 0 when SDCs == 0).
func (c YOLOCriticality) Fractions() (tolerable, detection, classification float64) {
	if c.SDCs == 0 {
		return 0, 0, 0
	}
	n := float64(c.SDCs)
	return float64(c.Tolerable) / n, float64(c.Detection) / n, float64(c.Classification) / n
}

// ClassifyYOLO decodes each faulty head and compares its detections to
// the golden detections of the same precision.
func ClassifyYOLO(y *kernels.YOLO, golden []float64, faulty [][]float64) YOLOCriticality {
	goldenDets := y.Detections(golden)
	res := YOLOCriticality{SDCs: len(faulty)}
	for _, out := range faulty {
		switch kernels.CompareDetections(goldenDets, y.Detections(out)) {
		case kernels.DetectionsTolerable:
			res.Tolerable++
		case kernels.DetectionChanged:
			res.Detection++
		case kernels.ClassificationChanged:
			res.Classification++
		}
	}
	return res
}

// Ratio formats a/b defensively for report rows.
func Ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", a/b)
}
