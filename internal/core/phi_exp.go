package core

import (
	"fmt"

	"mixedrel/internal/arch"
	"mixedrel/internal/beam"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/inject"
	"mixedrel/internal/metrics"
	"mixedrel/internal/report"
	"mixedrel/internal/xeonphi"
)

// phiWorkloads returns the three Xeon Phi benchmarks at paper scale.
func phiWorkloads() map[string]arch.Workload {
	lava := lavaKernel()
	gemm := gemmKernel()
	lud := ludKernel()
	return map[string]arch.Workload{
		"LavaMD": arch.NewWorkload(lava, opScaleTo(lava, phiLavaOps), 1),
		"MxM":    arch.NewWorkload(gemm, opScaleTo(gemm, phiMxMOps), 1),
		"LUD":    arch.NewWorkload(lud, opScaleTo(lud, phiLUDOps), 1),
	}
}

var phiOrder = []string{"LavaMD", "MxM", "LUD"}
var phiFormats = []fp.Format{fp.Double, fp.Single}

// Table2 reproduces the Xeon Phi execution-time table.
func Table2(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "table2",
		Title:   "Benchmark execution time on the Xeon Phi",
		Columns: []string{"Benchmark", "Double", "Single"},
		Notes: []string{
			"paper: LavaMD 1.307/0.801 s, MxM 10.612/12.028 s, LUD 1.264/0.818 s",
			"shape: single faster for the compute-bound codes, slower for MxM",
			"(prefetcher covers fewer elements per request in single)",
		},
	}
	return runGrid(cfg, t, len(phiOrder), func(i int) ([][]string, error) {
		return timeRow(xeonphi.New(), phiOrder[i], phiWorkloads()[phiOrder[i]], phiFormats)
	})
}

// phiBeam runs the beam campaign for one Phi benchmark and format.
func phiBeam(cfg Config, name string, f fp.Format, idx uint64) (*arch.Mapping, *beam.Result, error) {
	m, err := mapOn(xeonphi.New(), phiWorkloads()[name], f)
	if err != nil {
		return nil, nil, err
	}
	res, err := beam.Experiment{
		Mapping: m,
		Trials:  cfg.trials(),
		Seed:    cfg.seedFor("phi-"+name, idx),
		Workers: cfg.SampleWorkers,
	}.Run()
	return m, res, err
}

// Fig6 reproduces the Xeon Phi SDC/DUE FIT figure.
func Fig6(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig6",
		Title:   "SDC and DUE FIT on the Xeon Phi (a.u.)",
		Columns: []string{"Benchmark", "Format", "FIT-SDC", "FIT-DUE"},
		Notes: []string{
			"paper: single SDC FIT above double for LavaMD and MxM (more registers",
			"instantiated), similar for LUD; single DUE FIT above double everywhere",
			"(16 SP lanes carry twice the control bits of 8 DP lanes)",
		},
	}
	return runGrid(cfg, t, len(phiOrder)*len(phiFormats), func(i int) ([][]string, error) {
		name, fi := phiOrder[i/len(phiFormats)], i%len(phiFormats)
		f := phiFormats[fi]
		_, res, err := phiBeam(cfg, name, f, uint64(fi))
		if err != nil {
			return nil, err
		}
		return [][]string{{name, f.String(), fmtAU(res.FITSDC), fmtAU(res.FITDUE)}}, nil
	})
}

// Fig7 reproduces the Xeon Phi PVF figure via CAROL-FI-style injection
// into random variables (operand and memory sites).
func Fig7(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig7",
		Title:   "SDC PVF on the Xeon Phi (CAROL-FI single-bit flips)",
		Columns: []string{"Benchmark", "Format", "faults", "SDCs", "PVF"},
		Notes: []string{
			"paper: PVF is similar for single and double on every code — data",
			"precision does not change the propagation probability on shared hardware;",
			"the beam FIT difference comes from resource usage, not propagation",
		},
	}
	return runGrid(cfg, t, len(phiOrder)*len(phiFormats), func(i int) ([][]string, error) {
		name, fi := phiOrder[i/len(phiFormats)], i%len(phiFormats)
		f := phiFormats[fi]
		// Use the device mapping's environment (software exp and
		// all) so the injector sees the same dataflow the beam does.
		m, err := mapOn(xeonphi.New(), phiWorkloads()[name], f)
		if err != nil {
			return nil, err
		}
		c := inject.Campaign{
			Kernel:  m.Kernel,
			Format:  f,
			Faults:  cfg.faults(),
			Seed:    cfg.seedFor("phi-pvf-"+name, uint64(fi)),
			Sites:   []inject.Site{inject.SiteOperand, inject.SiteMemory},
			Wrap:    m.Wrap,
			WrapKey: m.WrapKey,
			Workers: cfg.SampleWorkers,
		}
		res, err := c.Run()
		if err != nil {
			return nil, err
		}
		return [][]string{{name, f.String(), fmt.Sprintf("%d", res.Faults),
			fmt.Sprintf("%d", res.SDCs), fmt.Sprintf("%.3f", res.PVF)}}, nil
	})
}

// Fig8 reproduces the Xeon Phi TRE sweep.
func Fig8(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig8",
		Title:   "FIT reduction vs tolerated relative error on the Xeon Phi",
		Columns: []string{"Benchmark", "Format", "TRE", "FIT (a.u.)", "reduction"},
		Notes: []string{
			"paper: double reduces faster for LUD and (slightly) MxM; for LavaMD the",
			"single version reduces faster — the double transcendental exp runs more",
			"steps, so faults strike mid-computation state with larger downstream effect",
		},
	}
	return runGrid(cfg, t, len(phiOrder)*len(phiFormats), func(i int) ([][]string, error) {
		name, fi := phiOrder[i/len(phiFormats)], i%len(phiFormats)
		f := phiFormats[fi]
		_, res, err := phiBeam(cfg, name, f, uint64(100+fi))
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

// Fig9 reproduces the Xeon Phi MEBF figure.
func Fig9(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:      "fig9",
		Title:   "Xeon Phi mean executions between failures (a.u.)",
		Columns: []string{"Benchmark", "Format", "MEBF", "vs double"},
		Notes: []string{
			"paper: single wins for LavaMD and LUD (performance gain exceeds the FIT",
			"increase); double wins for MxM (single is slower AND more exposed)",
		},
	}
	mebfs := make([]float64, len(phiOrder)*len(phiFormats))
	err := exec.ForEach(cfg.gridWorkers(), len(mebfs), func(i int) error {
		name, fi := phiOrder[i/len(phiFormats)], i%len(phiFormats)
		m, res, err := phiBeam(cfg, name, phiFormats[fi], uint64(200+fi))
		if err != nil {
			return err
		}
		mebfs[i] = metrics.MEBF(res.FITSDC, m.Time)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range phiOrder {
		base := ni * len(phiFormats)
		for fi, f := range phiFormats {
			t.AddRow(name, f.String(), fmt.Sprintf("%.3g", mebfs[base+fi]),
				metrics.Ratio(mebfs[base+fi], mebfs[base])) // vs double
		}
	}
	return t, nil
}
