package beam

import (
	"reflect"
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/xeonphi"
)

// TestBehavioralDUEDeterministic: the behavioral model must stay a pure
// function of the seed and keep the outcome accounting consistent.
func TestBehavioralDUEDeterministic(t *testing.T) {
	m := mustMap(t, xeonphi.New(), kernels.NewGEMM(8, 1), fp.Single)
	e := Experiment{Mapping: m, Trials: 300, Seed: 5, BehavioralDUE: true, TrapNonFinite: true}
	a, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("behavioral beam campaign not deterministic")
	}
	if a.SDC+a.DUE+a.Masked != a.Classified() {
		t.Errorf("outcomes %d+%d+%d != %d classified", a.SDC, a.DUE, a.Masked, a.Classified())
	}
	if a.DUECrash+a.DUEHang > a.DUE {
		t.Errorf("crash %d + hang %d exceeds DUE %d", a.DUECrash, a.DUEHang, a.DUE)
	}
	if a.DUE == 0 {
		t.Error("behavioral campaign on a control-heavy device observed no DUEs")
	}
	if a.DUECrash+a.DUEHang == 0 {
		t.Error("behavioral DUEs carry no detector split")
	}
}

// TestBehavioralVsConstantDUE: both models must observe DUEs on the
// Xeon Phi mapping; the behavioral rate comes from actual crashes and
// hangs, not the calibrated constant, so the split is populated only
// for the behavioral run.
func TestBehavioralVsConstantDUE(t *testing.T) {
	m := mustMap(t, xeonphi.New(), kernels.NewGEMM(8, 1), fp.Single)
	konst, err := Experiment{Mapping: m, Trials: 400, Seed: 9}.Run()
	if err != nil {
		t.Fatal(err)
	}
	behav, err := Experiment{Mapping: m, Trials: 400, Seed: 9, BehavioralDUE: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if konst.DUECrash+konst.DUEHang != 0 {
		t.Errorf("constant model produced a detector split: crash %d hang %d",
			konst.DUECrash, konst.DUEHang)
	}
	if behav.DUE == 0 || behav.FITDUE <= 0 {
		t.Errorf("behavioral model observed no DUEs (DUE=%d FITDUE=%g)", behav.DUE, behav.FITDUE)
	}
}
