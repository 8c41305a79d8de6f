// Package mixedrel evaluates the reliability of mixed-precision
// architectures under transient (soft) errors, reproducing the
// methodology of "Reliability Evaluation of Mixed-Precision
// Architectures" (dos Santos et al., HPCA 2019) in pure Go.
//
// The library provides:
//
//   - bit-accurate IEEE-754 half/single/double arithmetic with raw
//     bit-pattern access (Format, Bits, Env);
//   - the paper's workloads as precision-generic kernels (GEMM, LavaMD,
//     LUD, microbenchmarks, an MNIST-style CNN trained by
//     backpropagation, a YOLO-style detector) plus Hotspot and a
//     conjugate-gradient solver;
//   - device models of the three irradiated platforms — Xilinx
//     Zynq-7000 FPGA, Intel Xeon Phi 3120A, NVIDIA Titan V — that map
//     a workload to sensitive-resource exposure and an execution-time
//     estimate (NewFPGA, NewXeonPhi, NewGPU);
//   - a CAROL-FI-style single-bit-flip fault injector and a Monte-Carlo
//     neutron-beam campaign simulator (InjectionCampaign,
//     BeamExperiment);
//   - the paper's reliability metrics: FIT, MEBF, AVF/PVF, TRE
//     FIT-reduction curves, and CNN criticality classification;
//   - soft-error mitigations (TMR voting, ABFT-checksummed GEMM) with an
//     evaluation campaign (NewTMR, NewABFTGEMM, EvaluateMitigation);
//   - a reproduction harness with one experiment per paper table and
//     figure plus extension studies — bfloat16, multi-bit upsets vs
//     SECDED, FPGA fault accumulation, solver fault absorption
//     (Experiments, Reproduce).
//
// Quick start:
//
//	gpu := mixedrel.NewGPU()
//	k := mixedrel.NewGEMM(16, 42)
//	w := mixedrel.NewWorkload(k, 1e6, 1e4)
//	m, _ := gpu.Map(w, mixedrel.Half)
//	res, _ := mixedrel.BeamExperiment{Mapping: m, Trials: 2000, Seed: 1}.Run()
//	fmt.Println("FIT:", res.FITSDC, "MEBF:", mixedrel.MEBF(res.FITSDC, m.Time))
//
// Everything is deterministic in the seeds you pass; campaigns with the
// same configuration produce bit-identical results on every platform.
package mixedrel

import (
	"fmt"
	"io"
	"strings"
	"time"

	"mixedrel/internal/arch"
	"mixedrel/internal/beam"
	"mixedrel/internal/core"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/fpga"
	"mixedrel/internal/gpu"
	"mixedrel/internal/inject"
	"mixedrel/internal/kernels"
	"mixedrel/internal/metrics"
	"mixedrel/internal/mitigate"
	"mixedrel/internal/report"
	"mixedrel/internal/xeonphi"
)

// Format is an IEEE-754 binary interchange format (Half, Single, Double).
type Format = fp.Format

// The three floating-point precisions the paper studies, plus the
// bfloat16 extension format.
const (
	Half     = fp.Half
	Single   = fp.Single
	Double   = fp.Double
	BFloat16 = fp.BFloat16
)

// Formats lists the paper's three precisions, narrowest first.
var Formats = fp.Formats

// AllFormats additionally includes the bfloat16 extension.
var AllFormats = fp.AllFormats

// Bits is a raw IEEE-754 encoding carried in a uint64; see Format for
// field access and bit flipping.
type Bits = fp.Bits

// Env performs arithmetic in one precision on raw Bits; kernels are
// written against it and fault injectors wrap it.
type Env = fp.Env

// NewMachine returns the fault-free reference Env for a format.
func NewMachine(f Format) Env { return fp.NewMachine(f) }

// Kernel is a precision-generic workload; see the New* constructors.
type Kernel = kernels.Kernel

// MicroOp selects the operation of a microbenchmark.
type MicroOp = kernels.MicroOp

// Microbenchmark operation kinds.
const (
	MicroADD = kernels.MicroADD
	MicroMUL = kernels.MicroMUL
	MicroFMA = kernels.MicroFMA
)

// NewGEMM returns the paper's MxM workload: an n x n matrix multiply.
func NewGEMM(n int, seed uint64) Kernel { return kernels.NewGEMM(n, seed) }

// NewLavaMD returns the Rodinia LavaMD particle-potential workload on a
// dim^3 grid of boxes with perBox particles each.
func NewLavaMD(dim, perBox int, seed uint64) Kernel {
	return kernels.NewLavaMD(dim, perBox, seed)
}

// NewLUD returns the Rodinia LUD workload: LU factorization of an n x n
// diagonally dominant system.
func NewLUD(n int, seed uint64) Kernel { return kernels.NewLUD(n, seed) }

// NewHotspot returns the Rodinia Hotspot workload: an n x n thermal
// stencil evolved for the given number of steps.
func NewHotspot(n, steps int, seed uint64) Kernel {
	return kernels.NewHotspot(n, steps, seed)
}

// NewCG returns a conjugate-gradient solve of an n x n symmetric
// positive-definite system with a fixed iteration count.
func NewCG(n, iters int, seed uint64) Kernel { return kernels.NewCG(n, iters, seed) }

// NewMicro returns a register-resident synthetic benchmark executing
// opsPerThread operations of one kind on each of threads threads.
func NewMicro(op MicroOp, threads, opsPerThread int, seed uint64) Kernel {
	return kernels.NewMicro(op, threads, opsPerThread, seed)
}

// MNIST is the LeNet-style digit classifier; beyond Kernel it exposes
// Classify and the clean-accuracy diagnostics.
type MNIST = kernels.MNIST

// NewMNIST builds and trains the MNIST classifier with the given test
// batch size.
func NewMNIST(batch int, seed uint64) *MNIST { return kernels.NewMNIST(batch, seed) }

// YOLO is the YOLO-style object detector; beyond Kernel it exposes
// Detections decoding.
type YOLO = kernels.YOLO

// NewYOLO builds the detector with a deterministic synthetic scene.
func NewYOLO(seed uint64) *YOLO { return kernels.NewYOLO(seed) }

// ParseKernel returns the constructor of the workload a command line
// names, in any case, sized by size: mxm or gemm (n = size), lavamd
// (2^3 boxes of size/4+1 particles), lud, hotspot (8 steps), cg (size
// iterations), micro-add, micro-mul and micro-fma (4 threads of size
// operations), mnist and yolo or yolov3 (fixed sizes). Building is left
// to the caller because MNIST trains on construction.
func ParseKernel(name string, size int, seed uint64) (func() Kernel, error) {
	switch strings.ToLower(name) {
	case "mxm", "gemm":
		return func() Kernel { return NewGEMM(size, seed) }, nil
	case "lavamd":
		return func() Kernel { return NewLavaMD(2, size/4+1, seed) }, nil
	case "lud":
		return func() Kernel { return NewLUD(size, seed) }, nil
	case "hotspot":
		return func() Kernel { return NewHotspot(size, 8, seed) }, nil
	case "cg":
		return func() Kernel { return NewCG(size, size, seed) }, nil
	case "micro-add":
		return func() Kernel { return NewMicro(MicroADD, 4, size, seed) }, nil
	case "micro-mul":
		return func() Kernel { return NewMicro(MicroMUL, 4, size, seed) }, nil
	case "micro-fma":
		return func() Kernel { return NewMicro(MicroFMA, 4, size, seed) }, nil
	case "mnist":
		return func() Kernel { return NewMNIST(1, seed) }, nil
	case "yolo", "yolov3":
		return func() Kernel { return NewYOLO(seed) }, nil
	}
	return nil, fmt.Errorf("unknown kernel %q", name)
}

// Detection is one decoded object detection.
type Detection = kernels.Detection

// Device models a hardware platform that compiles (maps) workloads.
type Device = arch.Device

// Workload pairs an executable kernel with paper-scale factors.
type Workload = arch.Workload

// NewWorkload builds a Workload; non-positive scales default to 1.
func NewWorkload(k Kernel, opScale, dataScale float64) Workload {
	return arch.NewWorkload(k, opScale, dataScale)
}

// Mapping is a compiled workload: exposure, timing, fault parameters.
type Mapping = arch.Mapping

// ResourceClass identifies a kind of sensitive hardware resource.
type ResourceClass = arch.ResourceClass

// Resource classes referenced by campaign results.
const (
	ConfigMemory   = arch.ConfigMemory
	RegisterFile   = arch.RegisterFile
	FunctionalUnit = arch.FunctionalUnit
	ControlLogic   = arch.ControlLogic
	MemorySRAM     = arch.MemorySRAM
)

// NewFPGA returns the Xilinx Zynq-7000 model.
func NewFPGA() Device { return fpga.New() }

// NewXeonPhi returns the Intel Xeon Phi 3120A (Knights Corner) model.
func NewXeonPhi() Device { return xeonphi.New() }

// NewGPU returns the NVIDIA Titan V (Volta) model.
func NewGPU() Device { return gpu.New() }

// ParseDevice returns the device a command line names, in any case:
// fpga or zynq, xeonphi, phi or knc, and gpu, volta or titanv. It is
// the device counterpart of fp.ParseFormat.
func ParseDevice(name string) (Device, error) {
	switch strings.ToLower(name) {
	case "fpga", "zynq":
		return NewFPGA(), nil
	case "xeonphi", "phi", "knc":
		return NewXeonPhi(), nil
	case "gpu", "volta", "titanv":
		return NewGPU(), nil
	}
	return nil, fmt.Errorf("unknown device %q", name)
}

// BeamExperiment is a Monte-Carlo neutron-beam campaign over a Mapping.
type BeamExperiment = beam.Experiment

// BeamResult summarizes a beam campaign (FIT rates, outcome counts,
// per-SDC relative errors).
type BeamResult = beam.Result

// MBU configures multi-bit-upset probabilities for a BeamExperiment;
// with MBUs enabled, SECDED-protected resources contribute DUEs.
type MBU = beam.MBU

// Accumulation simulates FPGA configuration-fault pile-up without
// scrubbing (the regime the paper avoids by reprogramming after every
// observed error).
type Accumulation = beam.Accumulation

// AccumulationResult is the per-depth outcome curve of an Accumulation.
type AccumulationResult = beam.AccumulationResult

// InjectionCampaign is a CAROL-FI-style statistical fault-injection
// campaign over a kernel.
type InjectionCampaign = inject.Campaign

// InjectionResult summarizes an injection campaign (PVF, SDC errors).
type InjectionResult = inject.Result

// Site selects where an injection campaign's faults land.
type Site = inject.Site

// Injection fault sites. SiteControl corrupts control state (loop
// counters, indices, pointers) and is the behavioral source of
// crash/hang DUE outcomes.
const (
	SiteOperation = inject.SiteOperation
	SiteOperand   = inject.SiteOperand
	SiteMemory    = inject.SiteMemory
	SiteControl   = inject.SiteControl
)

// Outcome classifies one faulty execution.
type Outcome = inject.Outcome

// Campaign outcome classifications. CrashDUE and HangDUE are the
// behaviorally detected-unrecoverable outcomes: emulated segfaults/FP
// traps, and op-budget watchdog kills.
const (
	Masked   = inject.Masked
	SDC      = inject.SDC
	CrashDUE = inject.CrashDUE
	HangDUE  = inject.HangDUE
)

// Sampling configures the variance-reduction sampling engine of an
// InjectionCampaign: stratified allocation of the fault budget over
// (op-class x bit band x kernel phase) strata, optional Neyman-style
// adaptive refinement, and sequential early stopping on a confidence
// interval target.
type Sampling = inject.Sampling

// BitBand is a half-open range of bit positions, the bit axis of a
// stratified campaign.
type BitBand = inject.BitBand

// DefaultBitBands partitions a format's bits into low-mantissa,
// high-mantissa, exponent, and sign bands.
func DefaultBitBands(f Format) []BitBand { return inject.DefaultBitBands(f) }

// StratumResult is one stratum's share of a stratified campaign's
// result.
type StratumResult = inject.StratumResult

// Checkpoint makes a campaign crash-tolerant and resumable: classified
// samples are journaled to Path and a re-run with the same
// configuration completes only the missing ones, producing a
// byte-identical result. InjectionCampaign takes one; a BeamExperiment
// keeps no journal.
type Checkpoint = exec.Checkpoint

// ErrPartialCampaign is returned by a checkpointed campaign that
// stopped before every sample was classified (Checkpoint.Limit);
// re-run the same campaign to resume.
var ErrPartialCampaign = exec.ErrPartial

// ErrInterrupted is the errors.Is target for campaigns stopped by
// context cancellation (InjectionCampaign.Context /
// BeamExperiment.Context): in-flight samples drained, the checkpoint
// journal — when there was one — was flushed and synced. The concrete
// error is an *Interrupted carrying the journaled-sample count.
var ErrInterrupted = exec.ErrInterrupted

// Interrupted is the concrete error of a cancelled campaign.
type Interrupted = exec.Interrupted

// NewTMR wraps any kernel in triple modular redundancy with bitwise
// majority voting.
func NewTMR(inner Kernel) Kernel { return mitigate.NewTMR(inner) }

// ABFTGEMM is a GEMM protected by Huang-Abraham checksums (detection
// plus single-element correction).
type ABFTGEMM = mitigate.ABFTGEMM

// NewABFTGEMM wraps a GEMM kernel (as returned by NewGEMM) with ABFT
// checksum protection. It panics if k is not a GEMM.
func NewABFTGEMM(k Kernel) *ABFTGEMM {
	g, ok := k.(*kernels.GEMM)
	if !ok {
		panic("mixedrel: NewABFTGEMM requires a kernel from NewGEMM")
	}
	return mitigate.NewABFTGEMM(g)
}

// MitigationReport summarizes a mitigation evaluation campaign.
type MitigationReport = mitigate.Report

// EvaluateMitigation injects faults into a mitigated kernel and reports
// the residual silent-corruption probability, the corrected/detected
// split, and the compute overhead relative to the unprotected baseline.
func EvaluateMitigation(mitigated, baseline Kernel, f Format, faults int, seed uint64) (*MitigationReport, error) {
	return mitigate.Evaluate(mitigated, baseline, f, faults, seed)
}

// MEBF returns the mean number of executions completed between failures
// for a FIT rate and per-execution time.
func MEBF(fitSDC float64, execTime time.Duration) float64 {
	return metrics.MEBF(fitSDC, execTime)
}

// TREPoint is one point of a FIT-vs-tolerated-relative-error curve.
type TREPoint = metrics.TREPoint

// TRECurve computes the FIT reduction as the output tolerance grows.
// Pass nil thresholds for the paper's sweep.
func TRECurve(fitSDC float64, relErrs []float64, tres []float64) []TREPoint {
	return metrics.TRECurve(fitSDC, relErrs, tres)
}

// ClassifyMNIST splits a campaign's SDC outputs into critical
// (classification changed) and tolerable.
func ClassifyMNIST(m *MNIST, golden []float64, faulty [][]float64) metrics.MNISTCriticality {
	return metrics.ClassifyMNIST(m, golden, faulty)
}

// ClassifyYOLO classifies a campaign's SDC outputs into the paper's
// tolerable / detection-changed / classification-changed taxonomy.
func ClassifyYOLO(y *YOLO, golden []float64, faulty [][]float64) metrics.YOLOCriticality {
	return metrics.ClassifyYOLO(y, golden, faulty)
}

// Golden runs a kernel fault-free and returns its decoded output.
func Golden(k Kernel, f Format) []float64 {
	return kernels.Decode(f, kernels.Golden(k, f))
}

// ReproConfig configures the reproduction harness.
type ReproConfig = core.Config

// DefaultReproConfig returns the paper-sized campaign configuration.
func DefaultReproConfig() ReproConfig { return core.DefaultConfig() }

// Experiment is one reproducible paper artifact (table or figure).
type Experiment = core.Definition

// Experiments lists every reproduced table and figure in paper order.
func Experiments() []Experiment { return core.Experiments }

// Reproduce runs the experiment with the given id ("table1".."fig13")
// and returns its report table.
func Reproduce(id string, cfg ReproConfig) (*report.Table, error) {
	d, ok := core.Get(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return d.Run(cfg)
}

// ReproduceAll runs every experiment and renders the tables to w.
func ReproduceAll(cfg ReproConfig, w io.Writer) error {
	return core.RunAll(cfg, w)
}

// Table is a rendered experiment artifact.
type Table = report.Table

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "mixedrel: unknown experiment " + string(e)
}
