package inject

import (
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
)

// BenchmarkPersistentResultFault times one Runner sample under a
// persistent result fault, the FPGA configuration-memory strike: GEMM(16)
// single with Modulo 1 (MxM, where every FMA is struck) and MNIST with
// Modulo 13 (every 13th FMA) in each of Fig. 3's precisions. Each run
// strikes another residue and bit, in the same sequence on every build,
// and the reported ns/op is per run.
func BenchmarkPersistentResultFault(b *testing.B) {
	cases := []struct {
		name string
		k    func() kernels.Kernel
		f    fp.Format
		mod  uint64
	}{
		{"mxm16-single-mod1", func() kernels.Kernel { return kernels.NewGEMM(16, 1) }, fp.Single, 1},
		{"mnist-half-mod13", func() kernels.Kernel { return kernels.NewMNIST(1, 1) }, fp.Half, 13},
		{"mnist-single-mod13", func() kernels.Kernel { return kernels.NewMNIST(1, 1) }, fp.Single, 13},
		{"mnist-double-mod13", func() kernels.Kernel { return kernels.NewMNIST(1, 1) }, fp.Double, 13},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			runner := NewRunner(c.k(), c.f, "", nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				of := OpFault{Kind: fp.OpFMA, Index: uint64(i) % c.mod, Modulo: c.mod,
					Bit: i * 7 % c.f.Width(), Target: TargetResult}
				if _, abort := runner.RunSpec(FaultSpec{Op: &of}, false); abort != nil {
					b.Fatalf("run aborted: %v", abort.Value)
				}
			}
		})
	}
}
