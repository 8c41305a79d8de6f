package core

import (
	"fmt"
	"testing"

	"mixedrel/internal/report"
	"mixedrel/internal/xeonphi"
)

// TestExtDUEShape checks the ext-due table's shape, and that its DUE
// cells are its counts, at the test configuration and at Config.Seed
// 1-12 (checkExtDUECounts).
func TestExtDUEShape(t *testing.T) {
	tbl := runExp(t, "ext-due")
	if len(tbl.Rows) != len(phiOrder)*len(phiFormats) {
		t.Fatalf("ext-due has %d rows, want %d", len(tbl.Rows), len(phiOrder)*len(phiFormats))
	}
	for _, name := range phiOrder {
		for _, f := range phiFormats {
			match := []string{name, f.String()}
			pdue := val(t, "ext-due", "P(DUE)", match...)
			if pdue <= 0 || pdue > 1 {
				t.Errorf("%s/%v P(DUE) %v out of (0,1]", name, f, pdue)
			}
			if ab := val(t, "ext-due", "aborted", match...); ab != 0 {
				t.Errorf("%s/%v has %v aborted samples", name, f, ab)
			}
			if fit := val(t, "ext-due", "FIT-DUE behav", match...); fit <= 0 {
				t.Errorf("%s/%v behavioral FIT-DUE %v, want > 0", name, f, fit)
			}
		}
	}
	cfg := DefaultConfig()
	cfg.Quick = true
	checkExtDUECounts(t, cfg, tbl)
	// 300 faults a cell, unlike -quick's 250, give ratios whose third
	// decimal rounds; the beam columns are not checked, so its trials
	// shrink to keep the sweep cheap.
	cfg.Quick, cfg.Faults, cfg.Trials = false, 300, 10
	for seed := uint64(1); seed <= 12; seed++ {
		cfg.Seed = seed
		tbl, err := ExtDUE(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkExtDUECounts(t, cfg, tbl)
	}
}

// checkExtDUECounts reruns every cell's control-site campaign of the
// ext-due table tbl, rendered under cfg, and requires P(DUE) to be
// exactly (CrashDUEs+HangDUEs)/Classified(), and the P(crash), P(hang)
// and P(DUE) cells to be those count ratios formatted with %.3f. Adding
// two rounded cells and comparing the sum with a third instead fails on
// rounding alone.
func checkExtDUECounts(t *testing.T, cfg Config, tbl *report.Table) {
	t.Helper()
	for _, name := range phiOrder {
		for fi, f := range phiFormats {
			m, err := mapOn(xeonphi.New(), phiWorkloads()[name], f)
			if err != nil {
				t.Fatal(err)
			}
			res, err := extDUEControl(cfg, m, name, fi)
			if err != nil {
				t.Fatal(err)
			}
			n := float64(res.Classified())
			if want := float64(res.CrashDUEs+res.HangDUEs) / n; res.PDUE != want {
				t.Errorf("seed %d %s/%v: PDUE %v, (crash %d + hang %d) / %v = %v",
					cfg.Seed, name, f, res.PDUE, res.CrashDUEs, res.HangDUEs, n, want)
			}
			for _, c := range []struct {
				column string
				count  int
			}{
				{"P(crash)", res.CrashDUEs},
				{"P(hang)", res.HangDUEs},
				{"P(DUE)", res.CrashDUEs + res.HangDUEs},
			} {
				want := fmt.Sprintf("%.3f", float64(c.count)/n)
				if got := cell(t, tbl, c.column, name, f.String()); got != want {
					t.Errorf("seed %d %s/%v: %s cell %q, count %d / %v renders %q",
						cfg.Seed, name, f, c.column, got, c.count, n, want)
				}
			}
		}
	}
}
