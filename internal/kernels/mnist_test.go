package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"mixedrel/internal/fp"
)

func TestRenderDigitRangeAndInk(t *testing.T) {
	r := newTestRand(1)
	for d := 0; d < 10; d++ {
		img := RenderDigit(d, r)
		if len(img) != DigitSize*DigitSize {
			t.Fatalf("digit %d: %d pixels", d, len(img))
		}
		var ink float64
		for _, p := range img {
			if p < 0 || p > 1 {
				t.Fatalf("digit %d: pixel %v out of [0,1]", d, p)
			}
			ink += p
		}
		if ink < 20 {
			t.Errorf("digit %d: almost no ink (%v)", d, ink)
		}
	}
}

func TestRenderDigitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RenderDigit(10) did not panic")
		}
	}()
	RenderDigit(10, newTestRand(1))
}

func TestDigitSetShape(t *testing.T) {
	s := NewDigitSet(3, 7)
	if s.Len() != 30 {
		t.Fatalf("Len = %d, want 30", s.Len())
	}
	counts := map[int]int{}
	for _, l := range s.Labels {
		counts[l]++
	}
	for d := 0; d < 10; d++ {
		if counts[d] != 3 {
			t.Errorf("class %d has %d examples, want 3", d, counts[d])
		}
	}
}

func TestMNISTCleanAccuracy(t *testing.T) {
	m := newTestMNIST(t)
	if acc := m.CleanAccuracy(); acc < 0.9 {
		t.Errorf("clean float64 accuracy %v < 0.9 — training failed", acc)
	}
}

// trainedDigest pins the bits training produces for the shared
// newTestMNIST instance: SHA-256 over the conv1, conv2 and fc weights
// and biases, then CleanAccuracy, each float64 as its little-endian IEEE
// bits. Reordering a single sum in training changes it.
const trainedDigest = "92ef482a3fced2644bc635747155a185dd658b958f654178d74428afc9c153f2"

func TestMNISTTrainedBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go fuses x*y+z into one rounding on arm64, ppc64 and s390x,
		// so training there produces other (equally valid) bits.
		t.Skipf("digest recorded on amd64, not %s", runtime.GOARCH)
	}
	m := newTestMNIST(t)
	h := sha256.New()
	var b [8]byte
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	put(m.conv1.weight...)
	put(m.conv1.bias...)
	put(m.conv2.weight...)
	put(m.conv2.bias...)
	put(m.fc.weight...)
	put(m.fc.bias...)
	put(m.CleanAccuracy())
	if got := hex.EncodeToString(h.Sum(nil)); got != trainedDigest {
		t.Errorf("trained MNIST digest %s, want %s", got, trainedDigest)
	}
}

var mnistSink *MNIST

// BenchmarkMNISTBuild measures building the MNIST fixture at the seed
// core's experiments use; nearly all of it is the float64 training.
func BenchmarkMNISTBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mnistSink = NewMNIST(1, 1005)
	}
}

func TestMNISTGoldenClassificationAcrossPrecisions(t *testing.T) {
	m := newTestMNIST(t)
	// The paper keeps the same weights across precisions and reports
	// under 2% accuracy loss for half. Our double and half predictions
	// should agree on a confident classifier.
	predDouble := m.Classify(Decode(fp.Double, Golden(m, fp.Double)))
	for _, f := range []fp.Format{fp.Single, fp.Half} {
		pred := m.Classify(Decode(f, Golden(m, f)))
		diff := 0
		for i := range pred {
			if pred[i] != predDouble[i] {
				diff++
			}
		}
		if frac := float64(diff) / float64(len(pred)); frac > 0.1 {
			t.Errorf("%v: %.0f%% of predictions changed vs double", f, 100*frac)
		}
	}
}

func TestMNISTOutputIsProbabilities(t *testing.T) {
	m := newTestMNIST(t)
	for _, f := range fp.Formats {
		out := Decode(f, Golden(m, f))
		if len(out) != m.Batch*10 {
			t.Fatalf("%v: output length %d, want %d", f, len(out), m.Batch*10)
		}
		for i := 0; i < m.Batch; i++ {
			var sum float64
			for _, p := range out[i*10 : (i+1)*10] {
				if p < 0 || p > 1.0001 || math.IsNaN(p) {
					t.Fatalf("%v: probability %v out of range", f, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 0.02 {
				t.Fatalf("%v: probabilities sum to %v", f, sum)
			}
		}
	}
}

func TestMNISTPredictsTestLabels(t *testing.T) {
	m := newTestMNIST(t)
	pred := m.Classify(Decode(fp.Double, Golden(m, fp.Double)))
	correct := 0
	for i, p := range pred {
		if p == m.Labels()[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(pred)); frac < 0.8 {
		t.Errorf("only %.0f%% of the test batch classified correctly", 100*frac)
	}
}

func TestMNISTPanicsOnBadBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMNIST(0) did not panic")
		}
	}()
	NewMNIST(0, 1)
}
