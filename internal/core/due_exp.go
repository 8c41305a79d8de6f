package core

import (
	"fmt"

	"mixedrel/internal/arch"
	"mixedrel/internal/beam"
	"mixedrel/internal/inject"
	"mixedrel/internal/report"
	"mixedrel/internal/xeonphi"
)

// ExtDUE derives the DUE side of the paper's tables from first
// principles instead of the calibrated constant: control-state faults
// (loop/index/pointer corruption) are injected into the Xeon Phi
// benchmarks, the watchdog and FP trap classify crashes and hangs
// behaviorally, and the beam model's FIT-DUE is recomputed from the
// observed rates next to the legacy constant-DUEFraction value.
func ExtDUE(cfg Config) (*report.Table, error) {
	t := &report.Table{
		ID:    "ext-due",
		Title: "Extension: behavioral DUE emulation (control faults, watchdog, FP trap)",
		Columns: []string{"Benchmark", "Format", "faults", "P(SDC)", "P(crash)",
			"P(hang)", "P(DUE)", "aborted", "FIT-DUE behav", "FIT-DUE const"},
		Notes: []string{
			"P(*) from control-state injection (loop/index/pointer corruption with",
			"op-budget watchdog and NaN/Inf trap); FIT-DUE behav runs the beam model",
			"with those behavioral control strikes, FIT-DUE const uses the paper's",
			"calibrated DUEFraction. shape: crash-dominated DUEs, hang tail from",
			"loop-counter runaways; behavioral FIT-DUE tracks the constant model's",
			"order of magnitude without being asserted",
		},
	}
	return runGrid(cfg, t, len(phiOrder)*len(phiFormats), func(i int) ([][]string, error) {
		name, fi := phiOrder[i/len(phiFormats)], i%len(phiFormats)
		f := phiFormats[fi]
		m, err := mapOn(xeonphi.New(), phiWorkloads()[name], f)
		if err != nil {
			return nil, err
		}

		res, err := extDUEControl(cfg, m, name, fi)
		if err != nil {
			return nil, err
		}

		// Beam FIT-DUE, behavioral vs the calibrated constant.
		behav, err := beam.Experiment{
			Mapping:       m,
			Trials:        cfg.trials(),
			Seed:          cfg.seedFor("ext-due-beam-"+name, uint64(fi)),
			Workers:       cfg.SampleWorkers,
			BehavioralDUE: true,
			TrapNonFinite: true,
		}.Run()
		if err != nil {
			return nil, err
		}
		konst, err := beam.Experiment{
			Mapping: m,
			Trials:  cfg.trials(),
			Seed:    cfg.seedFor("ext-due-beam-"+name, uint64(fi)),
			Workers: cfg.SampleWorkers,
		}.Run()
		if err != nil {
			return nil, err
		}

		n := float64(res.Classified())
		return [][]string{{
			name, f.String(),
			fmt.Sprintf("%d", res.Faults),
			fmt.Sprintf("%.3f", res.PVF),
			fmt.Sprintf("%.3f", float64(res.CrashDUEs)/n),
			fmt.Sprintf("%.3f", float64(res.HangDUEs)/n),
			fmt.Sprintf("%.3f", res.PDUE),
			fmt.Sprintf("%d", len(res.Aborted)),
			fmtAU(behav.FITDUE),
			fmtAU(konst.FITDUE),
		}}, nil
	})
}

// extDUEControl runs ext-due's control-site campaign for one cell, the
// P(SDC)/P(DUE) split of control-state injection with the trap armed:
// workload name mapped as m in format phiFormats[fi].
func extDUEControl(cfg Config, m *arch.Mapping, name string, fi int) (*inject.Result, error) {
	f := phiFormats[fi]
	return inject.Campaign{
		Kernel:        m.Kernel,
		Format:        f,
		Faults:        cfg.faults(),
		Seed:          cfg.seedFor("ext-due-pvf-"+name, uint64(fi)),
		Sites:         []inject.Site{inject.SiteControl},
		Wrap:          m.Wrap,
		WrapKey:       m.WrapKey,
		TrapNonFinite: true,
		Workers:       cfg.SampleWorkers,
	}.Run()
}
