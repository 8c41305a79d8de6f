package mixedrel_test

import (
	"strings"
	"testing"

	"mixedrel"
	"mixedrel/internal/stats"
)

func TestPublicEndToEnd(t *testing.T) {
	gpu := mixedrel.NewGPU()
	k := mixedrel.NewGEMM(8, 42)
	w := mixedrel.NewWorkload(k, 1e6, 1e4)

	for _, f := range mixedrel.Formats {
		if !gpu.Supports(f) {
			t.Fatalf("GPU should support %v", f)
		}
		m, err := gpu.Map(w, f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mixedrel.BeamExperiment{Mapping: m, Trials: 150, Seed: 1}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.FITSDC < 0 {
			t.Errorf("%v: negative FIT", f)
		}
		if mebf := mixedrel.MEBF(res.FITSDC, m.Time); mebf <= 0 {
			t.Errorf("%v: non-positive MEBF", f)
		}
	}
}

func TestPublicInjection(t *testing.T) {
	c := mixedrel.InjectionCampaign{
		Kernel: mixedrel.NewLUD(8, 3),
		Format: mixedrel.Half,
		Faults: 100,
		Seed:   2,
		Sites:  []mixedrel.Site{mixedrel.SiteOperand, mixedrel.SiteMemory},
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PVF < 0 || res.PVF > 1 {
		t.Errorf("PVF %v out of range", res.PVF)
	}
	pts := mixedrel.TRECurve(res.PVF, res.RelErrs, nil)
	if len(pts) == 0 {
		t.Error("empty TRE curve")
	}
}

func TestPublicXeonPhiRejectsHalf(t *testing.T) {
	phi := mixedrel.NewXeonPhi()
	if phi.Supports(mixedrel.Half) {
		t.Error("Xeon Phi must not support half")
	}
	if _, err := phi.Map(mixedrel.NewWorkload(mixedrel.NewGEMM(8, 1), 1, 1), mixedrel.Half); err == nil {
		t.Error("mapping half on the Phi should fail")
	}
}

func TestPublicGolden(t *testing.T) {
	k := mixedrel.NewMicro(mixedrel.MicroMUL, 2, 10, 5)
	out := mixedrel.Golden(k, mixedrel.Single)
	if len(out) != 2 {
		t.Fatalf("golden length %d", len(out))
	}
}

func TestReproduceUnknownID(t *testing.T) {
	if _, err := mixedrel.Reproduce("nope", mixedrel.DefaultReproConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %q does not name the experiment", err)
	}
}

func TestReproduceOne(t *testing.T) {
	cfg := mixedrel.DefaultReproConfig()
	cfg.Quick = true
	tbl, err := mixedrel.Reproduce("table1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "table1" || len(tbl.Rows) != 2 {
		t.Errorf("unexpected table: id=%s rows=%d", tbl.ID, len(tbl.Rows))
	}
	var sb strings.Builder
	if err := tbl.WriteASCII(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "MxM") {
		t.Error("rendered table missing MxM row")
	}
}

func TestExperimentsList(t *testing.T) {
	exps := mixedrel.Experiments()
	if len(exps) != 25 {
		t.Fatalf("%d experiments, want 25 (every paper table and figure plus 6 extensions)", len(exps))
	}
}

func TestPublicHotspot(t *testing.T) {
	k := mixedrel.NewHotspot(8, 3, 1)
	out := mixedrel.Golden(k, mixedrel.Single)
	if len(out) != 64 {
		t.Fatalf("hotspot output length %d", len(out))
	}
	for _, d := range []mixedrel.Device{mixedrel.NewFPGA(), mixedrel.NewXeonPhi(), mixedrel.NewGPU()} {
		if _, err := d.Map(mixedrel.NewWorkload(k, 1e6, 1e3), mixedrel.Single); err != nil {
			t.Errorf("%s: cannot map Hotspot: %v", d.Name(), err)
		}
	}
}

func TestPublicBFloat16(t *testing.T) {
	if len(mixedrel.AllFormats) != 4 {
		t.Fatalf("AllFormats has %d entries", len(mixedrel.AllFormats))
	}
	gpu := mixedrel.NewGPU()
	if !gpu.Supports(mixedrel.BFloat16) {
		t.Fatal("GPU extension should accept bfloat16")
	}
	phi := mixedrel.NewXeonPhi()
	if phi.Supports(mixedrel.BFloat16) {
		t.Fatal("KNC must not accept bfloat16")
	}
	m, err := gpu.Map(mixedrel.NewWorkload(mixedrel.NewGEMM(8, 1), 1e6, 1e3), mixedrel.BFloat16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mixedrel.BeamExperiment{Mapping: m, Trials: 150, Seed: 2, Workers: 2}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FITSDC <= 0 {
		t.Error("bfloat16 campaign produced no errors at all")
	}
}

func TestPublicMBUAndAccumulation(t *testing.T) {
	phi := mixedrel.NewXeonPhi()
	m, err := phi.Map(mixedrel.NewWorkload(mixedrel.NewGEMM(8, 1), 1e6, 1), mixedrel.Single)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mixedrel.BeamExperiment{Mapping: m, Trials: 200, Seed: 3,
		MBU: mixedrel.MBU{P2: 0.2}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DUE == 0 {
		t.Error("MBU campaign on ECC'd hardware produced no DUEs")
	}

	fpga := mixedrel.NewFPGA()
	fm, err := fpga.Map(mixedrel.NewWorkload(mixedrel.NewGEMM(8, 1), 512, 64), mixedrel.Half)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := mixedrel.Accumulation{Mapping: fm, MaxFaults: 3, Rounds: 10, Seed: 4}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.Points) != 3 {
		t.Errorf("accumulation points %d", len(acc.Points))
	}
}

func TestPublicFacadeSurface(t *testing.T) {
	// Exercise the remaining thin wrappers end-to-end.
	env := mixedrel.NewMachine(mixedrel.Half)
	if got := env.ToFloat64(env.Add(env.FromFloat64(1), env.FromFloat64(2))); got != 3 {
		t.Errorf("facade env 1+2 = %v", got)
	}

	for _, op := range []mixedrel.MicroOp{mixedrel.MicroADD, mixedrel.MicroMUL, mixedrel.MicroFMA} {
		if k := mixedrel.NewMicro(op, 2, 4, 1); k == nil {
			t.Fatal("nil micro kernel")
		}
	}
	if mixedrel.NewLavaMD(2, 2, 1).Name() != "LavaMD" || mixedrel.NewLUD(4, 1).Name() != "LUD" {
		t.Error("kernel names wrong through facade")
	}

	mnist := mixedrel.NewMNIST(1, 5)
	golden := mixedrel.Golden(mnist, mixedrel.Single)
	crit := mixedrel.ClassifyMNIST(mnist, golden, [][]float64{golden})
	if crit.SDCs != 1 || crit.Critical != 0 {
		t.Errorf("identical output misclassified: %+v", crit)
	}

	yolo := mixedrel.NewYOLO(5)
	yg := mixedrel.Golden(yolo, mixedrel.Single)
	ycrit := mixedrel.ClassifyYOLO(yolo, yg, [][]float64{yg})
	if ycrit.Tolerable != 1 {
		t.Errorf("identical YOLO output misclassified: %+v", ycrit)
	}

	pts := mixedrel.TRECurve(10, []float64{0.5}, nil)
	if len(pts) == 0 || pts[0].FIT != 10 {
		t.Errorf("TRECurve through facade wrong: %+v", pts)
	}

	tmr := mixedrel.NewTMR(mixedrel.NewGEMM(4, 1))
	if tmr.Name() != "MxM+TMR" {
		t.Error("TMR facade wrong")
	}
	abft := mixedrel.NewABFTGEMM(mixedrel.NewGEMM(4, 1))
	if abft.Name() != "MxM+ABFT" {
		t.Error("ABFT facade wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewABFTGEMM on non-GEMM did not panic")
			}
		}()
		mixedrel.NewABFTGEMM(mixedrel.NewLUD(4, 1))
	}()

	rep, err := mixedrel.EvaluateMitigation(tmr, mixedrel.NewGEMM(4, 1), mixedrel.Single, 30, 1)
	if err != nil || rep.Faults != 30 {
		t.Errorf("EvaluateMitigation: %v %+v", err, rep)
	}
}

func TestPublicReproduceAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep skipped in -short")
	}
	cfg := mixedrel.DefaultReproConfig()
	cfg.Quick = true
	cfg.Trials = 40
	cfg.Faults = 40
	cfg.Workers = 4
	var sb strings.Builder
	if err := mixedrel.ReproduceAll(cfg, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "[fig13]") || !strings.Contains(sb.String(), "[ext-mitigation]") {
		t.Error("ReproduceAll output incomplete")
	}
}

// TestSamplingEfficiency checks the adaptive engine's claim on its
// reference campaign (EXPERIMENTS.md, sampling efficiency): LUD(12),
// single, operand+memory+control, seed 7, to a 0.01 CI half-width. It
// must stop early, having spent at most a fifth of the uniform Wilson
// need at the stratified estimates (it spends 1,112 samples, a 7.2x
// reduction).
func TestSamplingEfficiency(t *testing.T) {
	const hw = 0.01
	res, err := mixedrel.InjectionCampaign{
		Kernel: mixedrel.NewLUD(12, 1), Format: mixedrel.Single, Faults: 40000, Seed: 7,
		Sites:    []mixedrel.Site{mixedrel.SiteOperand, mixedrel.SiteMemory, mixedrel.SiteControl},
		Sampling: &mixedrel.Sampling{Adaptive: true, CIHalfWidth: hw},
	}.Run()
	if err != nil || !res.EarlyStopped {
		t.Fatalf("campaign did not stop early: %v", err)
	}
	need := max(stats.WilsonSamplesFor(res.StratifiedPVF, hw, 0.95), stats.WilsonSamplesFor(res.StratifiedPDUE, hw, 0.95))
	if r := float64(need) / float64(res.Faults); r < 5 {
		t.Errorf("spent %d samples, uniform need %d: %.2fx reduction, want at least 5x", res.Faults, need, r)
	}
}

// TestParseDevice: every device name and alias, in any case, names its
// device, and anything else is an error.
func TestParseDevice(t *testing.T) {
	want := map[string]mixedrel.Device{
		"fpga": mixedrel.NewFPGA(), "zynq": mixedrel.NewFPGA(),
		"xeonphi": mixedrel.NewXeonPhi(), "phi": mixedrel.NewXeonPhi(), "knc": mixedrel.NewXeonPhi(),
		"gpu": mixedrel.NewGPU(), "volta": mixedrel.NewGPU(), "titanv": mixedrel.NewGPU(),
	}
	for name, d := range want {
		for _, n := range []string{name, strings.ToUpper(name)} {
			got, err := mixedrel.ParseDevice(n)
			if err != nil || got.Name() != d.Name() {
				t.Errorf("ParseDevice(%q) = %v, %v; want %s", n, got, err, d.Name())
			}
		}
	}
	for _, bad := range []string{"", "cpu", "TitanV ", "Zynq-7000"} {
		if _, err := mixedrel.ParseDevice(bad); err == nil {
			t.Errorf("ParseDevice(%q) accepted", bad)
		}
	}
}

// TestParseKernel: every kernel name and alias, in any case, builds the
// kernel its constructor builds at that size and seed, and anything else
// is an error.
func TestParseKernel(t *testing.T) {
	const size, seed = 8, 3
	want := map[string]mixedrel.Kernel{
		"mxm": mixedrel.NewGEMM(size, seed), "gemm": mixedrel.NewGEMM(size, seed),
		"lavamd":    mixedrel.NewLavaMD(2, size/4+1, seed),
		"lud":       mixedrel.NewLUD(size, seed),
		"hotspot":   mixedrel.NewHotspot(size, 8, seed),
		"cg":        mixedrel.NewCG(size, size, seed),
		"micro-add": mixedrel.NewMicro(mixedrel.MicroADD, 4, size, seed),
		"micro-mul": mixedrel.NewMicro(mixedrel.MicroMUL, 4, size, seed),
		"micro-fma": mixedrel.NewMicro(mixedrel.MicroFMA, 4, size, seed),
		"mnist":     mixedrel.NewMNIST(1, seed),
		"yolo":      mixedrel.NewYOLO(seed), "yolov3": mixedrel.NewYOLO(seed),
	}
	for name, k := range want {
		newKernel, err := mixedrel.ParseKernel(strings.ToUpper(name), size, seed)
		if err != nil {
			t.Fatalf("ParseKernel(%q): %v", name, err)
		}
		if got := newKernel(); got.Key() != k.Key() {
			t.Errorf("ParseKernel(%q) builds %q, want %q", name, got.Key(), k.Key())
		}
	}
	for _, bad := range []string{"", "MxM ", "resnet"} {
		if _, err := mixedrel.ParseKernel(bad, size, seed); err == nil {
			t.Errorf("ParseKernel(%q) accepted", bad)
		}
	}
}
