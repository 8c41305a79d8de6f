package core

import (
	"fmt"

	"mixedrel/internal/arch"
	"mixedrel/internal/beam"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/fpga"
	"mixedrel/internal/metrics"
	"mixedrel/internal/report"
)

// fpgaWorkloads returns the two FPGA designs at paper scale.
func fpgaWorkloads() map[string]arch.Workload {
	return map[string]arch.Workload{
		"MNIST": arch.NewWorkload(mnistKernel(), 1, 1),
		"MxM":   arch.NewWorkload(gemmKernel(), fpgaMxMOpScale, fpgaMxMDataScale),
	}
}

// Table1 reproduces the Zynq execution-time table.
func Table1(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "table1",
		Title:   "Benchmark execution time on the Zynq-7000",
		Columns: []string{"Benchmark", "Double", "Single", "Half"},
		Notes: []string{
			"paper: MNIST 0.011/0.009/0.009 s; MxM 2.730/2.100/2.310 s",
			"shape: double slowest; half slower than single (LUT-mapped half multiplier)",
		},
	}
	names := []string{"MNIST", "MxM"}
	return runGrid(cfg, t, len(names), func(i int) ([][]string, error) {
		return timeRow(fpga.New(), names[i], fpgaWorkloads()[names[i]], []fp.Format{fp.Double, fp.Single, fp.Half})
	})
}

// Fig2 reproduces the FPGA resource-utilization figure.
func Fig2(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig2",
		Title:   "FPGA resource utilization",
		Columns: []string{"Design", "Format", "LUT", "DSP", "BRAM-bits"},
		Notes: []string{
			"paper: MxM area drops 45% double->single and 36% single->half;",
			"MNIST drops 53% then 26%",
		},
	}
	d := fpga.New()
	for _, name := range []string{"MxM", "MNIST"} {
		w := fpgaWorkloads()[name]
		for _, f := range []fp.Format{fp.Double, fp.Single, fp.Half} {
			m, err := mapOn(d, w, f)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, f.String(),
				fmt.Sprintf("%.0f", m.Resources["LUT"]),
				fmt.Sprintf("%.0f", m.Resources["DSP"]),
				fmt.Sprintf("%.0f", m.Resources["BRAMbits"]))
		}
	}
	return t, nil
}

// fpgaBeam runs the beam campaign for one FPGA design and format.
func fpgaBeam(cfg Config, name string, f fp.Format, keep bool, idx uint64) (*arch.Mapping, *beam.Result, error) {
	m, err := mapOn(fpga.New(), fpgaWorkloads()[name], f)
	if err != nil {
		return nil, nil, err
	}
	res, err := beam.Experiment{
		Mapping:     m,
		Trials:      cfg.trials(),
		Seed:        cfg.seedFor("fpga-"+name, idx),
		KeepOutputs: keep,
		Workers:     cfg.SampleWorkers,
	}.Run()
	return m, res, err
}

// Fig3 reproduces the FPGA FIT figure, splitting MNIST errors into
// critical (classification changed) and tolerable.
func Fig3(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig3",
		Title:   "FIT of MxM and MNIST on the FPGA (a.u.)",
		Columns: []string{"Design", "Format", "FIT-SDC", "FIT-critical", "FIT-tolerable", "critical-share", "FIT-DUE"},
		Notes: []string{
			"paper: FIT decreases with precision for both designs; MNIST FIT below MxM",
			"despite larger area (CNN masking); MNIST critical share 5%/14%/20% for D/S/H;",
			"no DUEs were ever observed on the FPGA",
		},
	}
	mnist := mnistKernel()
	names := []string{"MxM", "MNIST"}
	formats := []fp.Format{fp.Double, fp.Single, fp.Half}
	return runGrid(cfg, t, len(names)*len(formats), func(i int) ([][]string, error) {
		name, fi := names[i/len(formats)], i%len(formats)
		f := formats[fi]
		_, res, err := fpgaBeam(cfg, name, f, name == "MNIST", uint64(fi))
		if err != nil {
			return nil, err
		}
		critical, tolerable := res.FITSDC, 0.0
		share := 1.0
		if name == "MNIST" {
			golden := exec.Artifact(mnist, f, "", nil).Golden()
			crit := metrics.ClassifyMNIST(mnist, golden, res.Outputs)
			share = crit.CriticalFraction()
			critical = res.FITSDC * share
			tolerable = res.FITSDC - critical
		}
		return [][]string{{name, f.String(), fmtAU(res.FITSDC), fmtAU(critical),
			fmtAU(tolerable), fmtPct(share), fmtAU(res.FITDUE)}}, nil
	})
}

// Fig4 reproduces the FPGA TRE sweep for MxM.
func Fig4(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig4",
		Title:   "FIT reduction vs tolerated relative error, MxM on the FPGA",
		Columns: []string{"Format", "TRE", "FIT (a.u.)", "reduction"},
		Notes: []string{
			"paper: at TRE 0.1% double sheds ~63% of its errors, single much less,",
			"half almost none — faults in lower precisions corrupt larger value shares",
		},
	}
	formats := []fp.Format{fp.Double, fp.Single, fp.Half}
	return runGrid(cfg, t, len(formats), func(fi int) ([][]string, error) {
		f := formats[fi]
		_, res, err := fpgaBeam(cfg, "MxM", f, false, uint64(100+fi))
		if err != nil {
			return nil, err
		}
		var rows [][]string
		for _, p := range metrics.TRECurve(res.FITSDC, res.RelErrs, nil) {
			rows = append(rows, []string{f.String(), fmtTRE(p.TRE), fmtAU(p.FIT), fmtPct(p.Reduction)})
		}
		return rows, nil
	})
}

// Fig5 reproduces the FPGA MEBF figure.
func Fig5(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig5",
		Title:   "FPGA mean executions between failures (a.u.)",
		Columns: []string{"Design", "Format", "MEBF", "vs single"},
		Notes: []string{
			"paper: reducing precision raises MEBF; half MxM completes ~33% more",
			"executions between errors than single, half MNIST ~26% more",
		},
	}
	names := []string{"MxM", "MNIST"}
	formats := []fp.Format{fp.Double, fp.Single, fp.Half}
	mebfs := make([]float64, len(names)*len(formats))
	err := exec.ForEach(cfg.gridWorkers(), len(mebfs), func(i int) error {
		name, fi := names[i/len(formats)], i%len(formats)
		m, res, err := fpgaBeam(cfg, name, formats[fi], false, uint64(200+fi))
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
		base := ni * len(formats)
		for fi, f := range formats {
			t.AddRow(name, f.String(), fmt.Sprintf("%.3g", mebfs[base+fi]),
				metrics.Ratio(mebfs[base+fi], mebfs[base+1])) // vs single
		}
	}
	return t, nil
}
