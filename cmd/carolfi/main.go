// Command carolfi runs a CAROL-FI-style statistical fault-injection
// campaign: N single-bit flips into a kernel's live values, one per
// execution, reporting the PVF and the error-magnitude distribution.
//
// Example:
//
//	carolfi -kernel lavamd -format double -faults 2000 -sites operand,memory
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"mixedrel"
	"mixedrel/internal/exec"
	"mixedrel/internal/report"
	"mixedrel/internal/telemetry"
)

func main() {
	kernelName := flag.String("kernel", "mxm", "kernel: mxm, lavamd, lud, hotspot, cg, micro-add, micro-mul, micro-fma, mnist, yolo")
	formatName := flag.String("format", "single", "precision: half, single, double")
	faults := flag.Int("faults", 2000, "injected faults (one per execution)")
	seed := flag.Uint64("seed", 1, "campaign seed")
	size := flag.Int("size", 16, "kernel size parameter")
	sitesFlag := flag.String("sites", "operand,memory", "comma-separated fault sites: operation, operand, memory, control")
	watchdog := flag.Float64("watchdog", 0, "hang watchdog budget as a multiple of the fault-free op count (0 = default when injecting control faults)")
	trap := flag.Bool("trap", false, "classify NaN/Inf results produced by a fault as crash-DUEs")
	checkpointPath := flag.String("checkpoint", "", "journal classified samples to this file and resume from it")
	strata := flag.Int("strata", 0, "stratify the fault budget over (op-class x bit band x kernel phase) with this many phases (0 = uniform sampling)")
	adaptive := flag.Bool("adaptive", false, "reallocate budget rounds toward high-variance strata (Neyman refinement; requires -strata)")
	ciHalfWidth := flag.Float64("ci-halfwidth", 0, "stop early once the 95% CI on P(SDC) and P(DUE) is at most this half-width (requires -strata)")
	jsonOut := flag.Bool("json", false, "emit the raw campaign result as JSON")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "scheduler goroutine bound for this process")
	sampleWorkers := flag.Int("sample-workers", 1, "injection goroutines (>1 changes the sample but stays deterministic)")
	telOpts := telemetry.AddFlags(flag.CommandLine)
	flag.Parse()

	// Validate everything up front: a bad flag must be a usage error
	// here, not a panic (or a silent hang) mid-campaign.
	if flag.NArg() > 0 {
		failUsage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *faults <= 0 {
		failUsage(fmt.Errorf("-faults must be positive, got %d", *faults))
	}
	if *size <= 0 {
		failUsage(fmt.Errorf("-size must be positive, got %d", *size))
	}
	if *workers <= 0 {
		failUsage(fmt.Errorf("-workers must be positive, got %d", *workers))
	}
	if *sampleWorkers <= 0 {
		failUsage(fmt.Errorf("-sample-workers must be positive, got %d", *sampleWorkers))
	}
	if *watchdog < 0 {
		failUsage(fmt.Errorf("-watchdog must be non-negative, got %g", *watchdog))
	}
	if *strata < 0 {
		failUsage(fmt.Errorf("-strata must be non-negative, got %d", *strata))
	}
	if *adaptive && *strata == 0 {
		failUsage(fmt.Errorf("-adaptive requires -strata"))
	}
	if *ciHalfWidth != 0 && *strata == 0 {
		failUsage(fmt.Errorf("-ci-halfwidth requires -strata"))
	}
	if *ciHalfWidth < 0 || *ciHalfWidth >= 0.5 {
		failUsage(fmt.Errorf("-ci-halfwidth must be in [0, 0.5), got %g", *ciHalfWidth))
	}
	if err := telOpts.Validate(); err != nil {
		failUsage(err)
	}

	exec.SetMaxWorkers(*workers)

	kernel, err := pickKernel(*kernelName, *size, *seed)
	if err != nil {
		failUsage(err)
	}
	format, err := pickFormat(*formatName)
	if err != nil {
		failUsage(err)
	}
	sites, err := pickSites(*sitesFlag)
	if err != nil {
		failUsage(err)
	}

	c := mixedrel.InjectionCampaign{
		Kernel:        kernel,
		Format:        format,
		Faults:        *faults,
		Seed:          *seed,
		Sites:         sites,
		Watchdog:      *watchdog,
		TrapNonFinite: *trap,
		Workers:       *sampleWorkers,
	}
	if *checkpointPath != "" {
		c.Checkpoint = &mixedrel.Checkpoint{Path: *checkpointPath}
	}
	if *strata > 0 {
		c.Sampling = &mixedrel.Sampling{
			Phases:      *strata,
			Adaptive:    *adaptive,
			CIHalfWidth: *ciHalfWidth,
		}
	}
	// SIGINT/SIGTERM cancel the campaign instead of killing the
	// process: in-flight samples drain, the checkpoint journal (if any)
	// is flushed and synced, and the exit reports how to resume. A
	// second signal falls through to the default handler (hard kill).
	ctx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	c.Context = ctx

	stopTelemetry, err := telOpts.Start()
	if err != nil {
		fail(err)
	}
	res, err := c.Run()
	if stopErr := stopTelemetry(); stopErr != nil && err == nil {
		err = stopErr
	}
	if errors.Is(err, mixedrel.ErrInterrupted) {
		failInterrupted(err, *checkpointPath)
	}
	if err != nil {
		fail(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Kernel, Format string
			*mixedrel.InjectionResult
		}{kernel.Name(), format.String(), res}); err != nil {
			fail(err)
		}
		return
	}

	fmt.Printf("kernel  %s\nformat  %v\nfaults  %d\n", kernel.Name(), format, res.Faults)
	fmt.Printf("SDCs    %d\nmasked  %d\nPVF     %.4f\n", res.SDCs, res.Masked, res.PVF)
	if n := res.DUEs(); n > 0 {
		fmt.Printf("DUEs    %d (crash %d, hang %d)\nP(DUE)  %.4f\n",
			n, res.CrashDUEs, res.HangDUEs, res.PDUE)
	}
	if len(res.Strata) > 0 {
		if res.EarlyStopped {
			fmt.Printf("stopped early: CI target reached after %d samples\n", res.Faults)
		}
		fmt.Printf("stratified PVF    %s\n", report.FormatCI(res.StratifiedPVF, res.PVFCILow, res.PVFCIHigh))
		fmt.Printf("stratified P(DUE) %s\n", report.FormatCI(res.StratifiedPDUE, res.PDUECILow, res.PDUECIHigh))
		fmt.Println()
		if err := strataTable(res).WriteASCII(os.Stdout); err != nil {
			fail(err)
		}
	}
	for _, ab := range res.Aborted {
		fmt.Printf("aborted sample %d (%s, replay seed %#x): %s\n",
			ab.Index, ab.Fault, ab.Seed, ab.Panic)
	}

	if len(res.RelErrs) > 0 {
		errs := append([]float64(nil), res.RelErrs...)
		sort.Float64s(errs)
		q := func(p float64) float64 { return errs[int(p*float64(len(errs)-1))] }
		fmt.Println("\nSDC relative-error quantiles:")
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			fmt.Printf("  p%-3.0f %.4g\n", 100*p, q(p))
		}
		fmt.Println("\nTRE curve:")
		for _, pt := range mixedrel.TRECurve(res.PVF, res.RelErrs, nil) {
			fmt.Printf("  TRE %6.3g%%  residual PVF %.4f  (-%5.1f%%)\n",
				100*pt.TRE, pt.FIT, 100*pt.Reduction)
		}
	}
}

// strataTable renders the per-stratum tallies of a stratified campaign.
func strataTable(res *mixedrel.InjectionResult) *report.Table {
	t := &report.Table{
		ID:      "strata",
		Title:   "Per-stratum fault allocation and outcomes",
		Columns: []string{"stratum", "weight", "faults", "SDCs", "DUEs", "masked", "P(SDC)"},
	}
	for _, s := range res.Strata {
		p := "n/a"
		if n := s.SDCs + s.DUEs + s.Masked; n > 0 {
			p = fmt.Sprintf("%.3f", float64(s.SDCs)/float64(n))
		}
		t.AddRow(s.Desc, fmt.Sprintf("%.5f", s.Weight),
			fmt.Sprint(s.Faults), fmt.Sprint(s.SDCs), fmt.Sprint(s.DUEs),
			fmt.Sprint(s.Masked), p)
	}
	return t
}

func pickKernel(name string, size int, seed uint64) (mixedrel.Kernel, error) {
	switch strings.ToLower(name) {
	case "mxm", "gemm":
		return mixedrel.NewGEMM(size, seed), nil
	case "lavamd":
		return mixedrel.NewLavaMD(2, size/4+1, seed), nil
	case "lud":
		return mixedrel.NewLUD(size, seed), nil
	case "hotspot":
		return mixedrel.NewHotspot(size, 8, seed), nil
	case "cg":
		return mixedrel.NewCG(size, size, seed), nil
	case "micro-add":
		return mixedrel.NewMicro(mixedrel.MicroADD, 4, size, seed), nil
	case "micro-mul":
		return mixedrel.NewMicro(mixedrel.MicroMUL, 4, size, seed), nil
	case "micro-fma":
		return mixedrel.NewMicro(mixedrel.MicroFMA, 4, size, seed), nil
	case "mnist":
		return mixedrel.NewMNIST(1, seed), nil
	case "yolo", "yolov3":
		return mixedrel.NewYOLO(seed), nil
	}
	return nil, fmt.Errorf("unknown kernel %q", name)
}

func pickFormat(name string) (mixedrel.Format, error) {
	switch strings.ToLower(name) {
	case "half", "fp16", "binary16":
		return mixedrel.Half, nil
	case "single", "float", "fp32", "binary32":
		return mixedrel.Single, nil
	case "double", "fp64", "binary64":
		return mixedrel.Double, nil
	}
	return 0, fmt.Errorf("unknown format %q", name)
}

func pickSites(s string) ([]mixedrel.Site, error) {
	var sites []mixedrel.Site
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "operation":
			sites = append(sites, mixedrel.SiteOperation)
		case "operand":
			sites = append(sites, mixedrel.SiteOperand)
		case "memory":
			sites = append(sites, mixedrel.SiteMemory)
		case "control":
			sites = append(sites, mixedrel.SiteControl)
		case "":
		default:
			return nil, fmt.Errorf("unknown fault site %q", part)
		}
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("no fault sites given")
	}
	return sites, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "carolfi:", err)
	os.Exit(1)
}

// failInterrupted reports a signal-cancelled campaign: what is safely
// journaled, how to resume, and the distinct exit code 3 so scripts
// can tell a planned interruption from a failure (1) or bad usage (2).
func failInterrupted(err error, checkpointPath string) {
	fmt.Fprintln(os.Stderr, "carolfi:", err)
	if checkpointPath != "" {
		fmt.Fprintf(os.Stderr, "carolfi: resume with the same flags and -checkpoint %s\n", checkpointPath)
	} else {
		fmt.Fprintln(os.Stderr, "carolfi: no -checkpoint was set; a re-run starts from scratch")
	}
	os.Exit(3)
}

// failUsage reports a bad invocation: the error, then the flag set's
// usage text, then a non-zero exit (the conventional usage code 2).
func failUsage(err error) {
	fmt.Fprintln(os.Stderr, "carolfi:", err)
	flag.Usage()
	os.Exit(2)
}
