package kernels

// This file implements full backpropagation training for the MNIST
// network — stochastic gradient descent with momentum through both
// convolution layers, the average pools, the ReLUs and the dense
// readout. Training runs once, in float64, exactly like the paper's
// setup (the network is trained in one precision and the weights are
// converted to the others without retraining). All of it is
// training-time machinery: the reliability campaigns only ever exercise
// the precision-generic forward path.

// layerGrads holds one float64 per parameter of a layer: gradients in
// trainFull's batch loop, velocities in its momentum update.
type layerGrads struct {
	weight []float64
	bias   []float64
}

func newLayerGrads(weight, bias []float64) layerGrads {
	return layerGrads{
		weight: make([]float64, len(weight)),
		bias:   make([]float64, len(bias)),
	}
}

// mnistGrads holds layerGrads for every layer of an MNIST network.
type mnistGrads struct {
	conv1, conv2, fc layerGrads
}

func newMNISTGrads(m *MNIST) *mnistGrads {
	return &mnistGrads{
		conv1: newLayerGrads(m.conv1.weight, m.conv1.bias),
		conv2: newLayerGrads(m.conv2.weight, m.conv2.bias),
		fc:    newLayerGrads(m.fc.weight, m.fc.bias),
	}
}

func (g *mnistGrads) zero() {
	for _, l := range []layerGrads{g.conv1, g.conv2, g.fc} {
		clear(l.weight)
		clear(l.bias)
	}
}

// convBackward accumulates dL/dW and dL/db for layer l into g, given
// the working set of the forward64 pass that produced the output and
// the output gradient. When gradIn is not nil it is overwritten with
// dL/dInput (the first layer needs none). An output pixel whose
// gradient is zero contributes nothing, not even a zero add. Every
// accumulator receives its terms in the order of the scalar
// (oc, y, x, ic, ky, kx) nest.
func convBackward(l *convLayer, cw *convWork, gradOut []float64, g layerGrads, gradIn []float64) {
	oh, ow := l.outShape(cw.h, cw.w)
	plen := len(cw.off)
	clear(gradIn)
	for oc := 0; oc < l.outC; oc++ {
		wo := l.weight[oc*plen:][:plen]
		gw := g.weight[oc*plen:][:plen]
		for pix, d := range gradOut[oc*oh*ow : (oc+1)*oh*ow] {
			if d == 0 {
				continue
			}
			g.bias[oc] += d
			for t, v := range cw.col[pix*plen:][:plen] {
				gw[t] += d * v
			}
			if gradIn == nil {
				continue
			}
			gi := gradIn[(pix/ow)*cw.w+pix%ow:]
			for t, o := range cw.off {
				gi[o] += d * wo[t]
			}
		}
	}
}

// denseBackward accumulates dL/dW and dL/db for layer l into g, given
// the input and the output gradient, and overwrites gradIn with
// dL/dInput.
func denseBackward(l *denseLayer, in, gradOut []float64, g layerGrads, gradIn []float64) {
	in = in[:l.in]
	gradIn = gradIn[:l.in]
	clear(gradIn)
	for o, d := range gradOut[:l.out] {
		g.bias[o] += d
		wr := l.weight[o*l.in:][:l.in]
		gr := g.weight[o*l.in:][:l.in]
		for i, x := range in {
			gr[i] += d * x
			gradIn[i] += d * wr[i]
		}
	}
}

// avgPoolBackward spreads the pooled gradient evenly over each 2x2
// window of the c x h x w gradIn; odd trailing rows and columns, which
// the pool drops, get zero.
func avgPoolBackward(gradIn, gradOut []float64, c, h, w int) {
	oh, ow := h/2, w/2
	clear(gradIn)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < oh; y++ {
			r0 := gradIn[(ch*h+2*y)*w:][:2*ow]
			r1 := gradIn[(ch*h+2*y+1)*w:][:2*ow]
			for x, g := range gradOut[(ch*oh+y)*ow:][:ow] {
				d := g * 0.25
				r0[2*x], r0[2*x+1] = d, d
				r1[2*x], r1[2*x+1] = d, d
			}
		}
	}
}

// reluBackward zeroes gradients where the pre-activation was clipped.
func reluBackward(grad, pre []float64) {
	for i, p := range pre {
		if p <= 0 {
			grad[i] = 0
		}
	}
}

// trainState holds one image's float64 activations, the conv layers'
// patch working sets and the gradient scratch. It is sized once for a
// network and overwritten image by image, so a training or evaluation
// pass allocates nothing per image.
type trainState struct {
	c1, c2            *convWork
	c1Pre, c1Post, p1 []float64 // conv1 pre-ReLU, post-ReLU, pooled
	c2Pre, c2Post, p2 []float64
	logits, probs     []float64
	h1, w1, ph1, pw1  int
	h2, w2            int

	dLogits, dFeats, dC2, dP1, dC1 []float64
}

func (m *MNIST) newTrainState() *trainState {
	s := &trainState{}
	s.h1, s.w1 = m.conv1.outShape(DigitSize, DigitSize)
	s.ph1, s.pw1 = s.h1/2, s.w1/2
	s.h2, s.w2 = m.conv2.outShape(s.ph1, s.pw1)
	n1 := m.conv1.outC * s.h1 * s.w1
	np1 := m.conv1.outC * s.ph1 * s.pw1
	n2 := m.conv2.outC * s.h2 * s.w2
	s.c1 = m.conv1.newWork(DigitSize, DigitSize)
	s.c2 = m.conv2.newWork(s.ph1, s.pw1)
	f := func(n int) []float64 { return make([]float64, n) }
	s.c1Pre, s.c1Post, s.dC1 = f(n1), f(n1), f(n1)
	s.p1, s.dP1 = f(np1), f(np1)
	s.c2Pre, s.c2Post, s.dC2 = f(n2), f(n2), f(n2)
	s.p2, s.dFeats = f(m.fc.in), f(m.fc.in)
	s.logits, s.probs, s.dLogits = f(m.fc.out), f(m.fc.out), f(m.fc.out)
	return s
}

// forwardTrain runs the float64 forward pass of img into s, keeping the
// intermediates backward needs.
func (m *MNIST) forwardTrain(s *trainState, img []float64) {
	m.conv1.forward64(s.c1Pre, img, s.c1)
	copy(s.c1Post, s.c1Pre)
	relu64(s.c1Post)
	avgPool2x64(s.p1, s.c1Post, m.conv1.outC, s.h1, s.w1)
	m.conv2.forward64(s.c2Pre, s.p1, s.c2)
	copy(s.c2Post, s.c2Pre)
	relu64(s.c2Post)
	avgPool2x64(s.p2, s.c2Post, m.conv2.outC, s.h2, s.w2)
	m.fc.forward64(s.logits, s.p2)
	softmax64(s.probs, s.logits)
}

// backward adds into g the cross-entropy loss gradients of the image
// whose forwardTrain pass s holds, given its label: dense, pool2, ReLU2,
// conv2, pool1, ReLU1, conv1.
func (m *MNIST) backward(s *trainState, label int, g *mnistGrads) {
	copy(s.dLogits, s.probs)
	s.dLogits[label] -= 1
	denseBackward(m.fc, s.p2, s.dLogits, g.fc, s.dFeats)
	avgPoolBackward(s.dC2, s.dFeats, m.conv2.outC, s.h2, s.w2)
	reluBackward(s.dC2, s.c2Pre)
	convBackward(m.conv2, s.c2, s.dC2, g.conv2, s.dP1)
	avgPoolBackward(s.dC1, s.dP1, m.conv1.outC, s.h1, s.w1)
	reluBackward(s.dC1, s.c1Pre)
	convBackward(m.conv1, s.c1, s.dC1, g.conv1, nil)
}

// trainFull runs minibatch SGD with momentum through the whole network.
func (m *MNIST) trainFull(set *DigitSet, epochs int, lr, momentum float64, batch int, shuffleSeed uint64) {
	n := set.Len()
	st := m.newTrainState()
	g := newMNISTGrads(m)
	v := newMNISTGrads(m)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	shuffler := newShuffler(shuffleSeed)

	for e := 0; e < epochs; e++ {
		shuffler(order)
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			g.zero()
			for _, idx := range order[start:end] {
				m.forwardTrain(st, set.Images[idx])
				m.backward(st, set.Labels[idx], g)
			}

			scale := lr / float64(end-start)
			sgdStep(m.conv1.weight, g.conv1.weight, v.conv1.weight, scale, momentum)
			sgdStep(m.conv1.bias, g.conv1.bias, v.conv1.bias, scale, momentum)
			sgdStep(m.conv2.weight, g.conv2.weight, v.conv2.weight, scale, momentum)
			sgdStep(m.conv2.bias, g.conv2.bias, v.conv2.bias, scale, momentum)
			sgdStep(m.fc.weight, g.fc.weight, v.fc.weight, scale, momentum)
			sgdStep(m.fc.bias, g.fc.bias, v.fc.bias, scale, momentum)
		}
	}
}

// sgdStep applies one momentum-SGD update in place.
func sgdStep(params, grads, velocity []float64, scale, momentum float64) {
	for i := range params {
		velocity[i] = momentum*velocity[i] - scale*grads[i]
		params[i] += velocity[i]
	}
}

// newShuffler returns a deterministic in-place permutation function.
func newShuffler(seed uint64) func([]int) {
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	return func(order []int) {
		for i := len(order) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
	}
}
