package beam

import (
	"bytes"
	"encoding/json"
	"testing"

	"mixedrel/internal/arch"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/gpu"
	"mixedrel/internal/kernels"
	"mixedrel/internal/xeonphi"
)

// Parallel campaigns must be deterministic in the seed regardless of
// worker count.
func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	m, err := gpu.New().Map(arch.NewWorkload(kernels.NewGEMM(8, 1), 1e6, 1e3), fp.Single)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Result {
		res, err := Experiment{Mapping: m, Trials: 300, Seed: 9, Workers: workers,
			KeepOutputs: true}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(2), run(4), run(8)
	if a.SDC != b.SDC || b.SDC != c.SDC || a.DUE != b.DUE || b.DUE != c.DUE {
		t.Fatalf("worker counts disagree: %d/%d vs %d/%d vs %d/%d",
			a.SDC, a.DUE, b.SDC, b.DUE, c.SDC, c.DUE)
	}
	// Order-sensitive artifacts must match too.
	if len(a.RelErrs) != len(b.RelErrs) {
		t.Fatal("rel-err counts differ")
	}
	for i := range a.RelErrs {
		if a.RelErrs[i] != b.RelErrs[i] {
			t.Fatalf("rel-err order differs at %d", i)
		}
	}
	for i := range a.Outputs {
		for j := range a.Outputs[i] {
			if a.Outputs[i][j] != b.Outputs[i][j] {
				t.Fatalf("outputs differ at %d/%d", i, j)
			}
		}
	}
}

// The parallel and sequential estimators must agree statistically: same
// exposure, outcome fractions within sampling error.
func TestParallelAgreesWithSequential(t *testing.T) {
	m, err := gpu.New().Map(arch.NewWorkload(kernels.NewGEMM(10, 2), 1e6, 1e3), fp.Half)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 1500
	seq, err := Experiment{Mapping: m, Trials: trials, Seed: 4}.Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := Experiment{Mapping: m, Trials: trials, Seed: 4, Workers: 4}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if seq.ExposureRate != par.ExposureRate {
		t.Fatal("exposure rate should be identical")
	}
	// Fractions within 5 sigma of each other.
	ps := float64(seq.SDC) / trials
	pp := float64(par.SDC) / trials
	sigma := 5 * 0.5 / 38.7 // 5*sqrt(p(1-p)/n) upper bound
	if diff := ps - pp; diff > sigma || diff < -sigma {
		t.Errorf("SDC fraction %v (seq) vs %v (par) differ beyond noise", ps, pp)
	}
}

func TestParallelCountsConsistent(t *testing.T) {
	m, err := gpu.New().Map(arch.NewWorkload(kernels.NewLavaMD(2, 3, 1), 1e6, 1e3), fp.Single)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Experiment{Mapping: m, Trials: 400, Seed: 6, Workers: 3}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SDC+res.DUE+res.Masked != res.Trials {
		t.Errorf("outcomes do not sum to trials: %+v", res)
	}
	strikes := 0
	for _, cc := range res.ByClass {
		strikes += cc.Strikes
	}
	if strikes != res.Trials {
		t.Errorf("per-class strikes %d != trials %d", strikes, res.Trials)
	}
}

// TestSequentialPoolInvariant: a default (sequential-stream) experiment
// runs its trials on the shared pool with byte-identical results at
// every pool size. The mapping exposes every resource class, so both
// halves of a trial are covered: outcomes the draw decides (SECDED
// SRAM under MBUs, legacy ControlLogic, functional-unit misses) and
// faults that run (configuration, register, SRAM, integer-state and
// behavioral control strikes, with the trap and watchdog armed).
func TestSequentialPoolInvariant(t *testing.T) {
	old := exec.MaxWorkers()
	defer exec.SetMaxWorkers(old)
	m := mustMap(t, xeonphi.New(), kernels.NewLavaMD(1, 4, 2), fp.Single)
	if m.Counts.IntSites == 0 {
		t.Fatal("mapping has no integer-state sites to strike")
	}
	// The Phi's functional units (with integer state), SECDED register
	// file and control logic, plus the classes it lacks, all at one rate.
	mm := *m
	mm.UnrollFactor = 4
	var fuWeights [fp.NumOps]float64
	mm.Exposures = nil
	for _, x := range m.Exposures {
		if x.Class == arch.FunctionalUnit {
			if x.IntStateWeight == 0 {
				t.Fatal("functional units carry no integer-state weight")
			}
			x.VulnFraction = 0.5
			fuWeights = x.OpWeights
		}
		x.Bits, x.CrossSection = 1, 1
		mm.Exposures = append(mm.Exposures, x)
	}
	mm.Exposures = append(mm.Exposures,
		arch.Exposure{Class: arch.ConfigMemory, Bits: 1, CrossSection: 1, OpWeights: fuWeights},
		arch.Exposure{Class: arch.RegisterFile, Bits: 1, CrossSection: 1},
		arch.Exposure{Class: arch.MemorySRAM, Bits: 1, CrossSection: 1})

	for _, behavioral := range []bool{false, true} {
		e := Experiment{Mapping: &mm, Trials: 600, Seed: 17, KeepOutputs: true,
			MBU: MBU{P2: 0.3, P3: 0.1}, BehavioralDUE: behavioral, TrapNonFinite: behavioral}
		var base []byte
		for _, pool := range []int{1, 2, 8} {
			exec.SetMaxWorkers(pool)
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			for c := arch.ConfigMemory; c <= arch.MemorySRAM; c++ {
				if cc := res.ByClass[c]; cc == nil || cc.Strikes == 0 {
					t.Fatalf("behavioral=%v: class %v never struck", behavioral, c)
				}
			}
			// Draw-decided outcomes: SECDED multi-bit DUEs, functional
			// unit misses, and (legacy model) constant-rate control DUEs.
			if res.ByClass[arch.RegisterFile].DUE == 0 || res.ByClass[arch.FunctionalUnit].Masked == 0 {
				t.Fatalf("behavioral=%v: no SECDED DUE or functional-unit miss", behavioral)
			}
			if !behavioral && res.ByClass[arch.ControlLogic].DUE == 0 {
				t.Fatal("legacy control logic produced no DUE")
			}
			if behavioral && res.DUECrash+res.DUEHang == 0 {
				t.Fatal("behavioral run observed no crash or hang")
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = raw
				continue
			}
			if !bytes.Equal(raw, base) {
				t.Errorf("behavioral=%v pool %d: result differs from pool 1:\n got %.300s\nwant %.300s",
					behavioral, pool, raw, base)
			}
		}
	}
}
