package kernels

import (
	"sync"
	"testing"

	"mixedrel/internal/rng"
)

func newTestRand(seed uint64) *rng.Rand { return rng.New(seed) }

var (
	mnistOnce sync.Once
	mnistInst *MNIST

	yoloOnce sync.Once
	yoloInst *YOLO
)

// newTestMNIST returns a shared trained MNIST instance; training takes
// about 0.7 s on a 2 GHz Xeon core (BenchmarkMNISTBuild), so tests share
// one.
func newTestMNIST(t *testing.T) *MNIST {
	t.Helper()
	mnistOnce.Do(func() { mnistInst = NewMNIST(10, 2026) })
	return mnistInst
}

// newTestYOLO returns a shared YOLO instance.
func newTestYOLO(t *testing.T) *YOLO {
	t.Helper()
	yoloOnce.Do(func() { yoloInst = NewYOLO(2026) })
	return yoloInst
}
