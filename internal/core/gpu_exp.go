package core

import (
	"fmt"

	"mixedrel/internal/arch"
	"mixedrel/internal/beam"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/gpu"
	"mixedrel/internal/inject"
	"mixedrel/internal/kernels"
	"mixedrel/internal/metrics"
	"mixedrel/internal/report"
)

// gpuWorkloads returns the GPU benchmarks at paper scale.
func gpuWorkloads() map[string]arch.Workload {
	addK := microKernel(kernels.MicroADD)
	mulK := microKernel(kernels.MicroMUL)
	fmaK := microKernel(kernels.MicroFMA)
	lava := lavaKernel()
	gemm := gemmKernel()
	yolo := yoloKernel()
	return map[string]arch.Workload{
		"Micro-ADD": arch.NewWorkload(addK, opScaleTo(addK, gpuMicroOps), 1),
		"Micro-MUL": arch.NewWorkload(mulK, opScaleTo(mulK, gpuMicroOps), 1),
		"Micro-FMA": arch.NewWorkload(fmaK, opScaleTo(fmaK, gpuMicroOps), 1),
		"LavaMD":    arch.NewWorkload(lava, opScaleTo(lava, gpuLavaOps), 4e4),
		"MxM":       arch.NewWorkload(gemm, opScaleTo(gemm, gpuMxMOps), 1.6e4),
		"YOLOv3":    arch.NewWorkload(yolo, opScaleTo(yolo, gpuYOLOOps), 500),
	}
}

var gpuMicroOrder = []string{"Micro-MUL", "Micro-ADD", "Micro-FMA"}
var gpuFormats = []fp.Format{fp.Double, fp.Single, fp.Half}

// Table3 reproduces the Volta execution-time table.
func Table3(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "table3",
		Title:   "Benchmark execution time on the Volta GPU",
		Columns: []string{"Benchmark", "Double", "Single", "Half"},
		Notes: []string{
			"paper: micros 6.0/3.0/2.25 s (8/4/3 cycles per op); LavaMD 1.071/0.554/",
			"0.291 s; MxM 2.327/1.909/1.180 s; YOLOv3 0.133/0.079/0.283 s (half pays",
			"per-layer conversion overhead)",
		},
	}
	names := []string{"Micro-MUL", "Micro-ADD", "Micro-FMA", "LavaMD", "MxM", "YOLOv3"}
	return runGrid(cfg, t, len(names), func(i int) ([][]string, error) {
		return timeRow(gpu.New(), names[i], gpuWorkloads()[names[i]], gpuFormats)
	})
}

// gpuBeam runs the beam campaign for one GPU benchmark and format.
func gpuBeam(cfg Config, name string, f fp.Format, keep bool, idx uint64) (*arch.Mapping, *beam.Result, error) {
	m, err := mapOn(gpu.New(), gpuWorkloads()[name], f)
	if err != nil {
		return nil, nil, err
	}
	res, err := beam.Experiment{
		Mapping:     m,
		Trials:      cfg.trials(),
		Seed:        cfg.seedFor("gpu-"+name, idx),
		KeepOutputs: keep,
		Workers:     cfg.SampleWorkers,
	}.Run()
	return m, res, err
}

// gpuFITTable renders SDC/DUE FIT rows for a set of benchmarks.
func gpuFITTable(cfg Config, id, title string, names []string, notes []string, idxBase uint64) (*report.Table, error) {
	t := &report.Table{
		ID:      id,
		Title:   title,
		Columns: []string{"Benchmark", "Format", "FIT-SDC", "FIT-DUE"},
		Notes:   notes,
	}
	return runGrid(cfg, t, len(names)*len(gpuFormats), func(i int) ([][]string, error) {
		ni, fi := i/len(gpuFormats), i%len(gpuFormats)
		name, f := names[ni], gpuFormats[fi]
		_, res, err := gpuBeam(cfg, name, f, false, idxBase+uint64(ni*10+fi))
		if err != nil {
			return nil, err
		}
		return [][]string{{name, f.String(), fmtAU(res.FITSDC), fmtAU(res.FITDUE)}}, nil
	})
}

// Fig10a reproduces the GPU microbenchmark FIT figure.
func Fig10a(cfg Config) (*report.Table, error) {
	return gpuFITTable(cfg, "fig10a", "GPU FIT, microbenchmarks (a.u.)", gpuMicroOrder,
		[]string{
			"paper: MUL and FMA highest for double (core complexity); ADD inverted —",
			"double lowest, single ~ half (core count dominates the simple adder);",
			"FMA > MUL > ADD at fixed precision; micro DUE ~1/10 of realistic codes",
		}, 0)
}

// Fig10b reproduces the GPU LavaMD/MxM FIT figure.
func Fig10b(cfg Config) (*report.Table, error) {
	return gpuFITTable(cfg, "fig10b", "GPU FIT, LavaMD and MxM (a.u.)", []string{"LavaMD", "MxM"},
		[]string{
			"paper: MxM well above LavaMD (memory-bound, data exposed in caches);",
			"LavaMD follows the MUL trend, MxM the FMA trend; MxM double DUE ~2x half",
		}, 1000)
}

// Fig10c reproduces the GPU YOLO FIT figure.
func Fig10c(cfg Config) (*report.Table, error) {
	return gpuFITTable(cfg, "fig10c", "GPU FIT, YOLOv3 (a.u.)", []string{"YOLOv3"},
		[]string{
			"paper: trend similar to MUL/FMA with half significantly lowest;",
			"object-detection CNNs show a much higher DUE probability",
		}, 2000)
}

// gpuTRETable renders TRE sweeps for a set of benchmarks.
func gpuTRETable(cfg Config, id, title string, names []string, notes []string, idxBase uint64) (*report.Table, error) {
	t := &report.Table{
		ID:      id,
		Title:   title,
		Columns: []string{"Benchmark", "Format", "TRE", "FIT (a.u.)", "reduction"},
		Notes:   notes,
	}
	return runGrid(cfg, t, len(names)*len(gpuFormats), func(i int) ([][]string, error) {
		ni, fi := i/len(gpuFormats), i%len(gpuFormats)
		name, f := names[ni], gpuFormats[fi]
		_, res, err := gpuBeam(cfg, name, f, false, idxBase+uint64(ni*10+fi))
		if err != nil {
			return nil, err
		}
		var rows [][]string
		for _, p := range metrics.TRECurve(res.FITSDC, res.RelErrs, nil) {
			rows = append(rows, []string{name, f.String(), fmtTRE(p.TRE), fmtAU(p.FIT), fmtPct(p.Reduction)})
		}
		return rows, nil
	})
}

// Fig11a reproduces the GPU microbenchmark TRE figure.
func Fig11a(cfg Config) (*report.Table, error) {
	return gpuTRETable(cfg, "fig11a", "GPU FIT reduction vs TRE, microbenchmarks",
		gpuMicroOrder, []string{
			"paper: double benefits from the greatest reduction; half ~ single;",
			"ADD and FMA reduce less than MUL (operand alignment before addition)",
		}, 3000)
}

// Fig11b reproduces the GPU realistic-code TRE figure.
func Fig11b(cfg Config) (*report.Table, error) {
	return gpuTRETable(cfg, "fig11b", "GPU FIT reduction vs TRE, LavaMD and MxM",
		[]string{"LavaMD", "MxM"}, []string{
			"paper: LavaMD criticality correlates with MUL; for MxM half is the most",
			"critical data type, then single, then double",
		}, 4000)
}

// Fig11c reproduces the YOLO criticality figure.
func Fig11c(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig11c",
		Title:   "YOLOv3 SDC criticality on the GPU",
		Columns: []string{"Format", "SDCs", "tolerable", "detection-changed", "classification-changed"},
		Notes: []string{
			"paper: half and single show a higher share of critical errors than double;",
			"detection (box) errors depend less on the data type than class flips",
		},
	}
	y := yoloKernel()
	return runGrid(cfg, t, len(gpuFormats), func(fi int) ([][]string, error) {
		f := gpuFormats[fi]
		_, res, err := gpuBeam(cfg, "YOLOv3", f, true, uint64(5000+fi))
		if err != nil {
			return nil, err
		}
		golden := exec.Artifact(y, f, "", nil).Golden()
		crit := metrics.ClassifyYOLO(y, golden, res.Outputs)
		tf, df, cf := crit.Fractions()
		return [][]string{{f.String(), fmt.Sprintf("%d", crit.SDCs), fmtPct(tf), fmtPct(df), fmtPct(cf)}}, nil
	})
}

// Fig12 reproduces the GPU AVF figure: single-bit flips on a randomly
// selected in-flight operation, gated by the per-core vulnerability of
// the executing precision.
func Fig12(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig12",
		Title:   "AVF of the microbenchmarks on the GPU",
		Columns: []string{"Benchmark", "Format", "core-vuln", "P(SDC|corrupt)", "AVF"},
		Notes: []string{
			"paper: single and half share the FP32 core and an AVF; double's bigger",
			"core is more vulnerable per operation",
		},
	}
	d := gpu.New()
	return runGrid(cfg, t, len(gpuMicroOrder)*len(gpuFormats), func(i int) ([][]string, error) {
		name, fi := gpuMicroOrder[i/len(gpuFormats)], i%len(gpuFormats)
		f := gpuFormats[fi]
		w := gpuWorkloads()[name]
		m, err := mapOn(d, w, f)
		if err != nil {
			return nil, err
		}
		vuln := m.ExposureFor(arch.FunctionalUnit).Vuln()
		c := inject.Campaign{
			Kernel:  w.Kernel,
			Format:  f,
			Faults:  cfg.faults(),
			Seed:    cfg.seedFor("gpu-avf-"+name, uint64(fi)),
			Sites:   []inject.Site{inject.SiteOperation},
			Workers: cfg.SampleWorkers,
		}
		res, err := c.Run()
		if err != nil {
			return nil, err
		}
		avf := vuln * res.PVF
		return [][]string{{name, f.String(), fmt.Sprintf("%.2f", vuln),
			fmt.Sprintf("%.3f", res.PVF), fmt.Sprintf("%.3f", avf)}}, nil
	})
}

// Fig13 reproduces the GPU MEBF figure.
func Fig13(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig13",
		Title:   "GPU mean executions between failures (a.u.)",
		Columns: []string{"Benchmark", "Format", "MEBF", "vs double"},
		Notes: []string{
			"paper: MEBF rises as precision drops for every benchmark — lower FIT",
			"combines with shorter execution times",
		},
	}
	names := []string{"Micro-MUL", "Micro-ADD", "Micro-FMA", "LavaMD", "MxM", "YOLOv3"}
	mebfs := make([]float64, len(names)*len(gpuFormats))
	err := exec.ForEach(cfg.gridWorkers(), len(mebfs), func(i int) error {
		ni, fi := i/len(gpuFormats), i%len(gpuFormats)
		m, res, err := gpuBeam(cfg, names[ni], gpuFormats[fi], false, uint64(6000+ni*10+fi))
		if err != nil {
			return err
		}
		mebfs[i] = metrics.MEBF(res.FITSDC, m.Time)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		base := ni * len(gpuFormats)
		for fi, f := range gpuFormats {
			t.AddRow(name, f.String(), fmt.Sprintf("%.3g", mebfs[base+fi]),
				metrics.Ratio(mebfs[base+fi], mebfs[base])) // vs double
		}
	}
	return t, nil
}
