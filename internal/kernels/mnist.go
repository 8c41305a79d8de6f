package kernels

import (
	"fmt"
	"math"

	"mixedrel/internal/fp"
	"mixedrel/internal/rng"
)

// MNIST is the paper's small LeNet-like CNN classifier. Topology:
//
//	input 1x28x28
//	conv 5x5, 4 filters  -> 4x24x24, ReLU
//	avgpool 2x2          -> 4x12x12
//	conv 5x5, 8 filters  -> 8x8x8,   ReLU
//	avgpool 2x2          -> 8x4x4 = 128
//	dense 128 -> 10, softmax
//
// Following the paper, the network is trained once (in float64, playing
// the role of the paper's single-precision training) and the same
// weights are converted to every precision without retraining. Training
// runs on procedurally rendered digits (see digits.go): a fast
// softmax-regression warm start of the readout, then full
// backpropagation through both convolutions (see train.go), reaching
// ~98% accuracy on held-out renders.
//
// One execution classifies a batch of test images; the output vector is
// the concatenated per-image softmax probabilities (Batch x 10), which is
// what the golden comparison and the classification-criticality analysis
// consume.
type MNIST struct {
	Batch  int
	conv1  *convLayer
	conv2  *convLayer
	fc     *denseLayer
	test   *DigitSet
	labels []int
	acc    float64
	key    string
}

// NewMNIST builds and trains the classifier and prepares a deterministic
// test batch of the given size. It panics if batch <= 0.
func NewMNIST(batch int, seed uint64) *MNIST {
	if batch <= 0 {
		panic(fmt.Sprintf("kernels: MNIST batch %d", batch))
	}
	r := rng.New(seed)
	m := &MNIST{
		Batch: batch,
		conv1: newConvLayer(1, 4, 5, r),
		conv2: newConvLayer(4, 8, 5, r),
		fc:    newDenseLayer(128, 10, r),
	}

	train := NewDigitSet(30, r.Uint64())
	holdout := NewDigitSet(10, r.Uint64())
	// Warm-start the readout on the initial random features, then
	// fine-tune the whole network with backpropagation (see train.go).
	m.trainReadout(train)
	m.trainFull(train, 6, 0.001, 0.9, 10, r.Uint64())
	m.acc = m.accuracy64(holdout)

	m.test = NewDigitSet((batch+9)/10, r.Uint64())
	m.test.Images = m.test.Images[:batch]
	m.labels = m.test.Labels[:batch]
	m.key = fmt.Sprintf("mnist/b%d/s%d", batch, seed)
	return m
}

// Name implements Kernel.
func (m *MNIST) Name() string { return "MNIST" }

// Key implements Kernel.
func (m *MNIST) Key() string { return m.key }

// CleanAccuracy returns the fault-free float64 accuracy on a held-out
// render set.
func (m *MNIST) CleanAccuracy() float64 { return m.acc }

// Labels returns the true labels of the test batch.
func (m *MNIST) Labels() []int { return m.labels }

// trainReadout fits the dense layer with full-batch softmax-regression
// gradient descent on the frozen convolutional features. Features are
// standardized for training and the standardization affine is folded
// back into the dense weights afterwards, so the inference path stays a
// plain dense layer.
//
// Each iteration runs as two matrix products over the whole set — the
// logits of every sample, then the weight gradient — so every logit and
// every gradient element is one serial chain in the order of the
// per-sample loop it replaces.
func (m *MNIST) trainReadout(set *DigitSet) {
	n := set.Len()
	nf, no := m.fc.in, m.fc.out
	feats := make([]float64, n*nf) // sample-major: feats[s*nf+i]
	st := m.newTrainState()
	for s, img := range set.Images {
		m.forwardTrain(st, img)
		copy(feats[s*nf:], st.p2)
	}
	mu := make([]float64, nf)
	sigma := make([]float64, nf)
	for s := 0; s < n; s++ {
		for i, v := range feats[s*nf : (s+1)*nf] {
			mu[i] += v
		}
	}
	for i := range mu {
		mu[i] /= float64(n)
	}
	for s := 0; s < n; s++ {
		for i, v := range feats[s*nf : (s+1)*nf] {
			sigma[i] += (v - mu[i]) * (v - mu[i])
		}
	}
	for i := range sigma {
		sigma[i] = math.Sqrt(sigma[i]/float64(n)) + 1e-6
	}
	featsT := make([]float64, nf*n) // feature-major: featsT[i*n+s]
	for s := 0; s < n; s++ {
		f := feats[s*nf : (s+1)*nf]
		for i := range f {
			f[i] = (f[i] - mu[i]) / sigma[i]
			featsT[i*n+s] = f[i]
		}
	}
	const (
		iters = 600
		lr    = 0.5
	)
	w, b := m.fc.weight, m.fc.bias
	gw := make([]float64, len(w))
	gb := make([]float64, len(b))
	logitsT := make([]float64, no*n) // output-major: logitsT[o*n+s]
	dT := make([]float64, no*n)      // dL/dlogit, output-major
	logits := make([]float64, no)
	p := make([]float64, no)
	for it := 0; it < iters; it++ {
		for o := 0; o < no; o++ {
			row := logitsT[o*n : (o+1)*n]
			for s := range row {
				row[s] = b[o]
			}
		}
		mulABt64(logitsT, w, feats, no, n, nf)
		for s := 0; s < n; s++ {
			for o := range logits {
				logits[o] = logitsT[o*n+s]
			}
			softmax64(p, logits)
			for o, d := range p {
				if o == set.Labels[s] {
					d -= 1
				}
				dT[o*n+s] = d
			}
		}
		for o := range gb {
			var acc float64
			for _, d := range dT[o*n : (o+1)*n] {
				acc += d
			}
			gb[o] = acc
		}
		clear(gw)
		mulABt64(gw, dT, featsT, no, nf, n)
		inv := lr / float64(n)
		for i := range w {
			w[i] -= inv * gw[i]
		}
		for i := range b {
			b[i] -= inv * gb[i]
		}
	}
	// Fold the standardization into the layer:
	// W((f-mu)/sigma)+b == (W/sigma)f + (b - W mu/sigma).
	for o := 0; o < m.fc.out; o++ {
		base := o * nf
		for i := 0; i < nf; i++ {
			w[base+i] /= sigma[i]
			b[o] -= w[base+i] * mu[i]
		}
	}
}

// accuracy64 evaluates clean float64 accuracy on a digit set.
func (m *MNIST) accuracy64(set *DigitSet) float64 {
	st := m.newTrainState()
	correct := 0
	for i, img := range set.Images {
		m.forwardTrain(st, img)
		if Argmax(st.probs) == set.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(set.Len())
}

// Inputs implements Kernel. Element 0 is the concatenated test batch
// (Batch x 784); elements 1..6 are the network parameters (conv1 w/b,
// conv2 w/b, fc w/b), so memory-fault injection covers weights exactly
// as CAROL-FI's random-variable flips do.
func (m *MNIST) Inputs(f fp.Format) [][]fp.Bits {
	imgs := make([]float64, 0, m.Batch*DigitSize*DigitSize)
	for _, img := range m.test.Images {
		imgs = append(imgs, img...)
	}
	w1, b1 := m.conv1.encodeParams(f)
	w2, b2 := m.conv2.encodeParams(f)
	wf, bf := m.fc.encodeParams(f)
	return [][]fp.Bits{encode(f, imgs), w1, b1, w2, b2, wf, bf}
}

// Run implements Kernel: output is Batch x 10 softmax probabilities.
func (m *MNIST) Run(env fp.Env, in [][]fp.Bits) []fp.Bits {
	imgs, w1, b1, w2, b2, wf, bf := in[0], in[1], in[2], in[3], in[4], in[5], in[6]
	out := make([]fp.Bits, 0, m.Batch*10)
	px := DigitSize * DigitSize
	for bIdx := 0; bIdx < m.Batch; bIdx++ {
		t := tensor{c: 1, h: DigitSize, w: DigitSize,
			data: imgs[bIdx*px : (bIdx+1)*px]}
		x := m.conv1.forward(env, t, w1, b1)
		reluT(env, x)
		x = avgPool2(env, x)
		x = m.conv2.forward(env, x, w2, b2)
		reluT(env, x)
		x = avgPool2(env, x)
		logits := m.fc.forward(env, x.data, wf, bf)
		out = append(out, softmaxT(env, logits)...)
	}
	return out
}

// Classify decodes a Run output into one predicted class per image.
func (m *MNIST) Classify(out []float64) []int {
	preds := make([]int, m.Batch)
	for i := 0; i < m.Batch; i++ {
		preds[i] = Argmax(out[i*10 : (i+1)*10])
	}
	return preds
}
