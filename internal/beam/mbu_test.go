package beam

import (
	"testing"

	"mixedrel/internal/arch"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/fpga"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
	"mixedrel/internal/xeonphi"
)

func TestMBUSampleWidthDistribution(t *testing.T) {
	m := MBU{P2: 0.2, P3: 0.1}
	r := rng.New(1)
	counts := map[int]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[m.sampleWidth(r)]++
	}
	if got := float64(counts[2]) / n; got < 0.17 || got > 0.23 {
		t.Errorf("P2 sample %v, want ~0.2", got)
	}
	if got := float64(counts[3]) / n; got < 0.08 || got > 0.12 {
		t.Errorf("P3 sample %v, want ~0.1", got)
	}
	if counts[1]+counts[2]+counts[3] != n {
		t.Error("unexpected widths sampled")
	}
}

func TestMBUDisabledByDefault(t *testing.T) {
	if (MBU{}).Enabled() {
		t.Error("zero MBU must be disabled")
	}
	if !(MBU{P2: 0.1}).Enabled() {
		t.Error("P2 > 0 must enable MBUs")
	}
}

// With MBUs enabled, the Phi's ECC-protected register file joins the
// campaign and produces DUEs; without them it is invisible.
func TestMBUTurnsProtectedSRAMIntoDUEs(t *testing.T) {
	m, err := xeonphi.New().Map(arch.NewWorkload(kernels.NewGEMM(8, 1), 1e6, 1), fp.Single)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Experiment{Mapping: m, Trials: 400, Seed: 3}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := base.ByClass[arch.RegisterFile]; ok {
		t.Fatal("protected RF sampled without MBUs")
	}
	mbu, err := Experiment{Mapping: m, Trials: 400, Seed: 3, MBU: MBU{P2: 0.2, P3: 0.05}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	rf, ok := mbu.ByClass[arch.RegisterFile]
	if !ok || rf.Strikes == 0 {
		t.Fatal("protected RF not sampled with MBUs enabled")
	}
	if rf.SDC != 0 {
		t.Errorf("SECDED RF produced %d SDCs; multi-bit upsets must be detected, not silent", rf.SDC)
	}
	if rf.DUE == 0 {
		t.Error("RF multi-bit upsets produced no DUEs")
	}
	if mbu.FITDUE <= base.FITDUE {
		t.Errorf("MBU DUE FIT %v not above baseline %v", mbu.FITDUE, base.FITDUE)
	}
}

func TestAccumulationValidation(t *testing.T) {
	if _, err := (Accumulation{}).Run(); err == nil {
		t.Error("nil mapping accepted")
	}
	m, err := fpga.New().Map(arch.NewWorkload(kernels.NewGEMM(8, 1), 1, 1), fp.Single)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Accumulation{Mapping: m, MaxFaults: 0, Rounds: 5}).Run(); err == nil {
		t.Error("zero MaxFaults accepted")
	}
	// A GPU mapping has no configuration memory to accumulate in.
	gm, err := xeonphi.New().Map(arch.NewWorkload(kernels.NewGEMM(8, 1), 1e6, 1), fp.Single)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Accumulation{Mapping: gm, MaxFaults: 3, Rounds: 5}).Run(); err == nil {
		t.Error("accumulation on a device without config memory accepted")
	}
}

func TestAccumulationCurve(t *testing.T) {
	m, err := fpga.New().Map(arch.NewWorkload(kernels.NewGEMM(10, 1), 512, 64), fp.Double)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Accumulation{Mapping: m, MaxFaults: 5, Rounds: 30, Seed: 11}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("%d points", len(res.Points))
	}
	for i, p := range res.Points {
		if p.Faults != i+1 {
			t.Errorf("point %d has depth %d", i, p.Faults)
		}
		if p.PSDC < 0 || p.PSDC > 1 || p.PDead < 0 || p.PDead > 1 {
			t.Errorf("probabilities out of range: %+v", p)
		}
		if p.PDead > p.PSDC {
			t.Errorf("dead without SDC at depth %d: %+v", p.Faults, p)
		}
	}
	// A persistent fault in a U=1 datapath corrupts nearly every run.
	if res.Points[0].PSDC < 0.8 {
		t.Errorf("single persistent fault PSDC %v suspiciously low", res.Points[0].PSDC)
	}
	// Deeper accumulation cannot make the circuit healthier (allowing
	// sampling noise).
	if res.Points[4].PDead+0.15 < res.Points[0].PDead {
		t.Errorf("P(dead) decreased with accumulation: %+v", res.Points)
	}
}

// TestAccumulationDeterministic: the curve depends on the seed only —
// not on the run, and not on the pool size its rounds spread over.
// TestAccumulationDeterministic: the curve depends on the seed only —
// not on the run, and not on the pool size its rounds spread over.
func TestAccumulationDeterministic(t *testing.T) {
	old := exec.MaxWorkers()
	defer exec.SetMaxWorkers(old)
	for _, f := range []fp.Format{fp.Half, fp.Double} {
		m, err := fpga.New().Map(arch.NewWorkload(kernels.NewGEMM(8, 1), 512, 64), f)
		if err != nil {
			t.Fatal(err)
		}
		var want *AccumulationResult
		for _, pool := range []int{old, old, 1, 4} {
			exec.SetMaxWorkers(pool)
			got, err := Accumulation{Mapping: m, MaxFaults: 3, Rounds: 10, Seed: 5}.Run()
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			for i := range want.Points {
				if got.Points[i] != want.Points[i] {
					t.Fatalf("%v pool %d: depth %d gives %+v, want %+v", f, pool, i+1, got.Points[i], want.Points[i])
				}
			}
		}
	}
}

func TestIsDead(t *testing.T) {
	golden := []float64{1, 2, 3, 4}
	if isDead(golden, []float64{1, 2, 3, 4}) {
		t.Error("healthy output marked dead")
	}
	nan := func() float64 { return 0.0 / func() float64 { return 0 }() }
	_ = nan
	if !isDead(golden, []float64{1e10, 2e10, 3, 4}) {
		t.Error("half the outputs 1e10x off should be dead")
	}
	if !isDead(golden, []float64{1e-10, 2e-10, 3, 4}) {
		t.Error("half the outputs vanished should be dead")
	}
	if isDead(golden, []float64{1e10, 2, 3, 4}) {
		t.Error("a quarter off should not be dead")
	}
	if isDead(nil, nil) {
		t.Error("empty output cannot be dead")
	}
}
