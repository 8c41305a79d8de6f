package kernels

import (
	"math"
	"testing"
)

// Numerical gradient check: the analytic conv/pool/relu/dense backward
// pass must match finite differences of the cross-entropy loss.
func TestBackpropGradientCheck(t *testing.T) {
	r := newTestRand(5)
	m := &MNIST{Batch: 1,
		conv1: newConvLayer(1, 2, 3, r),
		conv2: newConvLayer(2, 3, 3, r),
		fc:    newDenseLayer(75, 10, r), // 3 x 5 x 5 after two pools of 28x28? see below
	}
	// With 28x28 input: conv1(3) -> 26, pool -> 13, conv2(3) -> 11,
	// pool -> 5: features = 3*5*5 = 75.
	img := RenderDigit(3, r)
	label := 3

	st := m.newTrainState()
	loss := func() float64 {
		m.forwardTrain(st, img)
		return -math.Log(st.probs[label] + 1e-300)
	}

	// Analytic gradients via the backward pass training uses.
	g := newMNISTGrads(m)
	m.forwardTrain(st, img)
	m.backward(st, label, g)

	check := func(name string, params []float64, grad []float64, indices []int) {
		const eps = 1e-6
		for _, i := range indices {
			orig := params[i]
			params[i] = orig + eps
			up := loss()
			params[i] = orig - eps
			down := loss()
			params[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-grad[i]) > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", name, i, grad[i], numeric)
			}
		}
	}
	check("fc.weight", m.fc.weight, g.fc.weight, []int{0, 7, 74, 100, 749})
	check("fc.bias", m.fc.bias, g.fc.bias, []int{0, 3, 9})
	check("conv2.weight", m.conv2.weight, g.conv2.weight, []int{0, 5, 17, 53})
	check("conv2.bias", m.conv2.bias, g.conv2.bias, []int{0, 2})
	check("conv1.weight", m.conv1.weight, g.conv1.weight, []int{0, 4, 8, 17})
	check("conv1.bias", m.conv1.bias, g.conv1.bias, []int{0, 1})
}

func TestTrainFullImprovesLoss(t *testing.T) {
	r := newTestRand(9)
	m := &MNIST{Batch: 1,
		conv1: newConvLayer(1, 4, 5, r),
		conv2: newConvLayer(4, 8, 5, r),
		fc:    newDenseLayer(128, 10, r),
	}
	set := NewDigitSet(5, 21)
	st := m.newTrainState()
	meanLoss := func() float64 {
		var sum float64
		for i, img := range set.Images {
			m.forwardTrain(st, img)
			sum += -math.Log(st.probs[set.Labels[i]] + 1e-300)
		}
		return sum / float64(set.Len())
	}
	before := meanLoss()
	m.trainFull(set, 4, 0.001, 0.9, 10, 3)
	after := meanLoss()
	if !(after < before) {
		t.Errorf("training did not reduce loss: %v -> %v", before, after)
	}
}

func TestAvgPoolBackwardConservesGradient(t *testing.T) {
	gradOut := []float64{4, 8, 12, 16}
	gradIn := make([]float64, 16)
	avgPoolBackward(gradIn, gradOut, 1, 4, 4)
	var sumOut, sumIn float64
	for _, g := range gradOut {
		sumOut += g
	}
	for _, g := range gradIn {
		sumIn += g
	}
	if math.Abs(sumIn-sumOut) > 1e-12 {
		t.Errorf("pool backward changed total gradient: %v vs %v", sumIn, sumOut)
	}
	// Each window receives a quarter of its pooled gradient.
	if gradIn[0] != 1 || gradIn[1] != 1 || gradIn[4] != 1 || gradIn[5] != 1 {
		t.Errorf("window 0 gradients %v %v %v %v, want 1", gradIn[0], gradIn[1], gradIn[4], gradIn[5])
	}
}

func TestReluBackwardMasks(t *testing.T) {
	grad := []float64{1, 2, 3}
	pre := []float64{-1, 0, 5}
	reluBackward(grad, pre)
	if grad[0] != 0 || grad[1] != 0 || grad[2] != 3 {
		t.Errorf("relu backward wrong: %v", grad)
	}
}

func TestShufflerDeterministicPermutation(t *testing.T) {
	a := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b := append([]int(nil), a...)
	newShuffler(5)(a)
	newShuffler(5)(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shuffler not deterministic")
		}
	}
	seen := map[int]bool{}
	for _, v := range a {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatal("shuffler lost elements")
	}
}
