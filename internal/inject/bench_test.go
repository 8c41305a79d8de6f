package inject

import (
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
)

// BenchmarkPersistentResultFault times one Runner sample under a
// persistent result fault, the FPGA configuration-memory strike: GEMM(16)
// single with Modulo 1 (MxM, where every FMA is struck) and MNIST with
// Modulo 13 (every 13th FMA) in each of Fig. 3's precisions. The depth-2
// and depth-8 GEMM cases schedule that many such faults at once, upsets
// accumulated without scrubbing (beam.Accumulation; ext-accum runs depths
// 1-8). Each run strikes other residues and bits, in the same sequence
// on every build, and the reported ns/op is per run.
func BenchmarkPersistentResultFault(b *testing.B) {
	cases := []struct {
		name  string
		k     func() kernels.Kernel
		f     fp.Format
		mod   uint64
		depth int
	}{
		{"mxm16-single-mod1", func() kernels.Kernel { return kernels.NewGEMM(16, 1) }, fp.Single, 1, 1},
		{"mxm16-single-mod1-depth2", func() kernels.Kernel { return kernels.NewGEMM(16, 1) }, fp.Single, 1, 2},
		{"mxm16-single-mod1-depth8", func() kernels.Kernel { return kernels.NewGEMM(16, 1) }, fp.Single, 1, 8},
		{"mnist-half-mod13", func() kernels.Kernel { return kernels.NewMNIST(1, 1) }, fp.Half, 13, 1},
		{"mnist-single-mod13", func() kernels.Kernel { return kernels.NewMNIST(1, 1) }, fp.Single, 13, 1},
		{"mnist-double-mod13", func() kernels.Kernel { return kernels.NewMNIST(1, 1) }, fp.Double, 13, 1},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			runner := NewRunner(c.k(), c.f, "", nil)
			ops := make([]OpFault, c.depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for d := range ops {
					ops[d] = OpFault{Kind: fp.OpFMA, Index: uint64(i+d) % c.mod, Modulo: c.mod,
						Bit: (i*7 + d*5) % c.f.Width(), Target: TargetResult}
				}
				if _, abort := runner.RunSpec(FaultSpec{Ops: ops}, false); abort != nil {
					b.Fatalf("run aborted: %v", abort.Value)
				}
			}
		})
	}
}

// BenchmarkHotspotSample times one Runner sample of inject-cone's
// Hotspot(16,8) single campaign per fault site: an operand fault over
// every operation, a memory fault over the temperature and power maps,
// and a control fault with the default watchdog. Each site draws its
// faults from its own fixed stream, so every build runs the same
// samples; the reported ns/op is per sample.
func BenchmarkHotspotSample(b *testing.B) {
	runner := NewRunner(kernels.NewHotspot(16, 8, 1), fp.Single, "", nil)
	counts, lens, f := runner.Counts(), runner.ArrayLens(), fp.Single
	sites := []struct {
		name string
		draw func(r *rng.Rand) Fault
	}{
		{"operand", func(r *rng.Rand) Fault {
			return Fault{Site: SiteOperand, Op: SampleOpFault(r, counts, f, 0, true, TargetOperand)}
		}},
		{"memory", func(r *rng.Rand) Fault { return Fault{Site: SiteMemory, Mem: SampleMemFault(r, lens, f)} }},
		{"control", func(r *rng.Rand) Fault { return Fault{Site: SiteControl, Control: SampleControlFault(r, counts)} }},
	}
	for _, s := range sites {
		b.Run(s.name, func(b *testing.B) {
			r := rng.New(0x407)
			for i := 0; i < b.N; i++ {
				fault := s.draw(r)
				spec := fault.Spec()
				if fault.Site == SiteControl {
					spec.Watchdog = DefaultWatchdogFactor
				}
				if _, abort := runner.RunSpec(spec, false); abort != nil {
					b.Fatalf("run aborted: %v", abort.Value)
				}
			}
		})
	}
}
