// Package core is the reproduction harness: one experiment definition
// per table and figure of the paper, each building the relevant
// workloads, mapping them onto the device models, running beam and
// fault-injection campaigns, and rendering a report table with the
// measured values next to the paper's expected shape.
//
// Experiment identifiers follow the paper: table1..table3 are the
// execution-time tables, fig2..fig13 the figures. See DESIGN.md for the
// full index and EXPERIMENTS.md for measured-vs-paper results.
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mixedrel/internal/arch"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/report"
)

// Config controls campaign sizes and determinism.
type Config struct {
	// Seed drives every campaign's sampling. Fixed seed, identical
	// output.
	Seed uint64
	// Trials is the number of simulated beam strikes per configuration.
	Trials int
	// Faults is the number of injected faults per configuration (the
	// paper uses >= 2000).
	Faults int
	// Quick shrinks campaigns for fast test runs.
	Quick bool
	// Workers bounds the cross-configuration parallelism: how many
	// (benchmark x format) campaigns an experiment — and how many
	// experiments RunAll — may run concurrently on the shared
	// scheduler. Every campaign derives an independent seed via
	// seedFor, so this parallelism never changes any table. Zero
	// defaults to the scheduler bound (exec.MaxWorkers); 1 runs the
	// configurations one at a time. Either way each campaign's samples
	// also spread over the scheduler's free cores (see SampleWorkers),
	// so exec.SetMaxWorkers(1) is what makes a run single-threaded.
	Workers int
	// SampleWorkers selects each campaign's random-stream discipline.
	// 0 or 1, the default, is the sequential stream: samples draw in
	// order from one stream and run in parallel on the shared
	// scheduler, with the same bits at any pool size. Above 1, every
	// sample draws from its own stream (deterministic in Seed, but a
	// different — equally valid — sample) on up to that many
	// goroutines.
	SampleWorkers int
}

// DefaultConfig returns the paper-sized campaign configuration.
func DefaultConfig() Config {
	return Config{Seed: 2019, Trials: 2000, Faults: 2000}
}

// trials returns the effective beam-strike count: the configured value,
// defaulted to 2000 and capped at 250 in Quick mode.
func (c Config) trials() int {
	n := c.Trials
	if n <= 0 {
		n = 2000
	}
	if c.Quick && n > 250 {
		n = 250
	}
	return n
}

// faults returns the effective injection count, with the same defaults
// as trials.
func (c Config) faults() int {
	n := c.Faults
	if n <= 0 {
		n = 2000
	}
	if c.Quick && n > 250 {
		n = 250
	}
	return n
}

// seedFor derives a per-campaign seed so experiments are independent.
func (c Config) seedFor(id string, idx uint64) uint64 {
	h := c.Seed
	for _, b := range []byte(id) {
		h = h*1099511628211 + uint64(b)
	}
	return h*31 + idx
}

// gridWorkers returns the effective cross-configuration parallelism.
func (c Config) gridWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return exec.MaxWorkers()
}

// runGrid runs an experiment's n independent configuration jobs on the
// shared scheduler and appends each job's rows to t in job order, so
// the rendered table is identical for every worker count (each job
// draws its campaign seed from seedFor, never from a shared stream).
func runGrid(cfg Config, t *report.Table, n int, job func(i int) ([][]string, error)) (*report.Table, error) {
	rows := make([][][]string, n)
	err := exec.ForEach(cfg.gridWorkers(), n, func(i int) error {
		r, err := job(i)
		if err != nil {
			return err
		}
		rows[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rs := range rows {
		for _, r := range rs {
			t.AddRow(r...)
		}
	}
	return t, nil
}

// Definition is one runnable experiment.
type Definition struct {
	ID    string
	Title string
	Run   func(Config) (*report.Table, error)
}

// Experiments lists every reproduced table and figure, in paper order.
var Experiments = []Definition{
	{"table1", "Table 1: benchmark execution time on the Zynq-7000", Table1},
	{"fig2", "Figure 2: FPGA resource utilization", Fig2},
	{"fig3", "Figure 3: FIT of MxM and MNIST on the FPGA (critical vs tolerable)", Fig3},
	{"fig4", "Figure 4: FIT reduction vs TRE for MxM on the FPGA", Fig4},
	{"fig5", "Figure 5: FPGA mean executions between failures", Fig5},
	{"table2", "Table 2: benchmark execution time on the Xeon Phi", Table2},
	{"fig6", "Figure 6: SDC and DUE FIT on the Xeon Phi", Fig6},
	{"fig7", "Figure 7: PVF on the Xeon Phi", Fig7},
	{"fig8", "Figure 8: FIT reduction vs TRE on the Xeon Phi", Fig8},
	{"fig9", "Figure 9: Xeon Phi mean executions between failures", Fig9},
	{"table3", "Table 3: benchmark execution time on the Volta GPU", Table3},
	{"fig10a", "Figure 10a: GPU FIT, microbenchmarks", Fig10a},
	{"fig10b", "Figure 10b: GPU FIT, LavaMD and MxM", Fig10b},
	{"fig10c", "Figure 10c: GPU FIT, YOLOv3", Fig10c},
	{"fig11a", "Figure 11a: GPU FIT reduction vs TRE, microbenchmarks", Fig11a},
	{"fig11b", "Figure 11b: GPU FIT reduction vs TRE, LavaMD and MxM", Fig11b},
	{"fig11c", "Figure 11c: YOLOv3 SDC criticality", Fig11c},
	{"fig12", "Figure 12: AVF of the microbenchmarks on the GPU", Fig12},
	{"fig13", "Figure 13: GPU mean executions between failures", Fig13},
	{"ext-bf16", "Extension: binary16 vs bfloat16 reliability", ExtBF16},
	{"ext-mbu", "Extension: multi-bit upsets vs SECDED on the Xeon Phi", ExtMBU},
	{"ext-accum", "Extension: FPGA configuration-fault accumulation", ExtAccum},
	{"ext-mitigation", "Extension: TMR and ABFT protection of MxM", ExtMitigation},
	{"ext-solver", "Extension: iterative vs direct solver fault absorption", ExtSolver},
	{"ext-due", "Extension: behavioral DUE emulation and first-principles FIT-DUE", ExtDUE},
}

// Get returns the experiment with the given id.
func Get(id string) (Definition, bool) {
	for _, d := range Experiments {
		if d.ID == id {
			return d, true
		}
	}
	return Definition{}, false
}

// RunAll executes every experiment — concurrently on the shared
// scheduler, since each campaign seeds independently — and renders the
// tables to w in paper order.
func RunAll(cfg Config, w io.Writer) error {
	tables := make([]*report.Table, len(Experiments))
	err := exec.ForEach(cfg.gridWorkers(), len(Experiments), func(i int) error {
		t, err := Experiments[i].Run(cfg)
		if err != nil {
			return fmt.Errorf("core: %s: %w", Experiments[i].ID, err)
		}
		tables[i] = t
		return nil
	})
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.WriteASCII(w); err != nil {
			return err
		}
	}
	return nil
}

// ---- shared workload construction -----------------------------------

// Executable kernel sizes: small enough that one faulty execution takes
// well under a millisecond (GEMM/LUD/micro) or a few milliseconds
// (CNNs), large enough that fault sites are plentiful. Paper-scale op
// and data counts enter through the Workload scale factors.
const (
	gemmExecN    = 16
	ludExecN     = 16
	lavaExecDim  = 2
	lavaExecPerB = 4
	microThreads = 4
	microOps     = 50
)

// Kernel construction seeds (inputs are part of the experiment identity
// and stay fixed; Config.Seed varies only campaign sampling).
const (
	seedGEMM  = 1001
	seedLava  = 1002
	seedLUD   = 1003
	seedMicro = 1004
	seedMNIST = 1005
	seedYOLO  = 1006
)

var (
	mnistOnce sync.Once
	mnistK    *kernels.MNIST
	yoloOnce  sync.Once
	yoloK     *kernels.YOLO
)

// mnistKernel returns the shared trained MNIST instance (training is
// deterministic but takes about 0.7 s on a 2 GHz Xeon core; see
// kernels.BenchmarkMNISTBuild).
func mnistKernel() *kernels.MNIST {
	mnistOnce.Do(func() { mnistK = kernels.NewMNIST(1, seedMNIST) })
	return mnistK
}

// yoloKernel returns the shared YOLO-lite instance.
func yoloKernel() *kernels.YOLO {
	yoloOnce.Do(func() { yoloK = kernels.NewYOLO(seedYOLO) })
	return yoloK
}

func gemmKernel() *kernels.GEMM   { return kernels.NewGEMM(gemmExecN, seedGEMM) }
func ludKernel() *kernels.LUD     { return kernels.NewLUD(ludExecN, seedLUD) }
func lavaKernel() *kernels.LavaMD { return kernels.NewLavaMD(lavaExecDim, lavaExecPerB, seedLava) }
func microKernel(op kernels.MicroOp) *kernels.Micro {
	return kernels.NewMicro(op, microThreads, microOps, seedMicro)
}

// opScaleTo returns the OpScale that brings kernel k to targetOps total
// dynamic operations (op counts are precision-independent for all the
// paper's kernels). The profile comes from the process cache, so the
// repeated workload-map construction inside grid loops costs one kernel
// execution per kernel for the whole process.
func opScaleTo(k kernels.Kernel, targetOps float64) float64 {
	total := exec.Artifact(k, fp.Double, "", nil).Counts.Total()
	return targetOps / float64(total)
}

// Paper-scale targets. FPGA MxM is the paper's 128x128; Xeon Phi and GPU
// target op counts are set so the timing models land on the execution
// times of Tables 2 and 3 (the absolute times are calibration inputs;
// every FIT/MEBF/criticality result is computed, not calibrated).
const (
	fpgaMxMOpScale   = 512 // 16^3 -> 128^3
	fpgaMxMDataScale = 64  // 16^2 -> 128^2

	phiLavaOps = 8.631e10
	phiLUDOps  = 1.585e11
	phiMxMOps  = 8.755e9

	gpuMicroOps = 1e9 * 20480 // 1e9 ops per thread on 20480 threads
	gpuLavaOps  = 7.109e10
	gpuMxMOps   = 1.600e11
	gpuYOLOOps  = 3.217e10
)

// mapOrDie maps a workload and validates the result.
func mapOn(d arch.Device, w arch.Workload, f fp.Format) (*arch.Mapping, error) {
	m, err := d.Map(w, f)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// timeRow maps workload w on device d in each format and returns the
// execution-time row of Tables 1–3: the benchmark name, then one modeled
// time per format. Each runGrid job passes its own device.
func timeRow(d arch.Device, name string, w arch.Workload, formats []fp.Format) ([][]string, error) {
	row := []string{name}
	for _, f := range formats {
		m, err := mapOn(d, w, f)
		if err != nil {
			return nil, err
		}
		row = append(row, fmtSec(m.Time))
	}
	return [][]string{row}, nil
}

// fmtSec renders a modeled duration the way the paper's tables do.
func fmtSec(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// fmtAU renders a FIT value in normalized arbitrary units.
func fmtAU(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtPct renders a fraction as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// fmtTRE renders a tolerance threshold without rounding tiny values away.
func fmtTRE(v float64) string { return fmt.Sprintf("%g%%", 100*v) }
