// Command sweep runs a precision-reliability sweep: one beam campaign
// per (kernel size, precision) point, reporting FIT, MEBF and modeled
// execution time so the precision trade-off can be plotted as a curve
// rather than read from a single configuration.
//
// Example:
//
//	sweep -device gpu -kernel mxm -sizes 8,12,16,24 -trials 1000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"mixedrel"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/report"
	"mixedrel/internal/telemetry"
)

func main() {
	deviceName := flag.String("device", "gpu", "device model: fpga, xeonphi, gpu")
	kernelName := flag.String("kernel", "mxm", "kernel: mxm, lud, hotspot, lavamd")
	sizesFlag := flag.String("sizes", "8,12,16,24", "comma-separated kernel sizes")
	formatsFlag := flag.String("formats", "", "comma-separated precisions (default: all the device supports)")
	trials := flag.Int("trials", 1000, "beam strikes per point")
	seed := flag.Uint64("seed", 1, "campaign seed")
	opScale := flag.Float64("opscale", 1e6, "paper-scale multiplier for ops at the smallest size")
	behavioralDUE := flag.Bool("behavioral-due", false, "derive DUEs behaviorally (control-fault injection + watchdog) instead of the calibrated constant rate")
	strata := flag.Int("strata", 0, "additionally run a stratified injection campaign per point with this many kernel phases, adding a PVF CI column (0 = off)")
	adaptive := flag.Bool("adaptive", false, "Neyman-adaptive budget refinement for the stratified campaigns (requires -strata)")
	ciHalfWidth := flag.Float64("ci-halfwidth", 0, "stop each stratified campaign once the 95% CI on P(SDC)/P(DUE) is at most this half-width (requires -strata)")
	pvfFaults := flag.Int("pvf-faults", 2000, "fault budget of each per-point stratified injection campaign (with -strata)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "goroutine bound for this process: (size, format) campaigns and their samples run concurrently; never changes the numbers")
	sampleWorkers := flag.Int("sample-workers", 1, "above 1, each campaign draws per-sample streams: a different sample, still deterministic; sampling already uses -workers cores")
	telOpts := telemetry.AddFlags(flag.CommandLine)
	flag.Parse()

	// Validate everything — including the kernel name, which is
	// otherwise first resolved inside the concurrent grid — before any
	// campaign starts, so a typo is a usage error and not a mid-sweep
	// failure.
	if flag.NArg() > 0 {
		failUsage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trials <= 0 {
		failUsage(fmt.Errorf("-trials must be positive, got %d", *trials))
	}
	if *opScale <= 0 {
		failUsage(fmt.Errorf("-opscale must be positive, got %g", *opScale))
	}
	if *workers <= 0 {
		failUsage(fmt.Errorf("-workers must be positive, got %d", *workers))
	}
	if *sampleWorkers <= 0 {
		failUsage(fmt.Errorf("-sample-workers must be positive, got %d", *sampleWorkers))
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
	if *pvfFaults <= 0 {
		failUsage(fmt.Errorf("-pvf-faults must be positive, got %d", *pvfFaults))
	}
	if err := telOpts.Validate(); err != nil {
		failUsage(err)
	}

	exec.SetMaxWorkers(*workers)

	device, err := mixedrel.ParseDevice(*deviceName)
	if err != nil {
		failUsage(err)
	}
	sizes, err := parseInts(*sizesFlag)
	if err != nil {
		failUsage(err)
	}
	for _, n := range sizes {
		if n <= 0 {
			failUsage(fmt.Errorf("sizes must be positive, got %d", n))
		}
	}
	formats, err := parseFormats(*formatsFlag, device)
	if err != nil {
		failUsage(err)
	}
	if _, _, err := pickKernel(*kernelName, sizes[0], *seed); err != nil {
		failUsage(err)
	}

	header := fmt.Sprintf("%-6s  %-9s  %-12s  %-12s  %-12s  %-10s",
		"size", "format", "exec time", "FIT-SDC", "FIT-DUE", "MEBF")
	if *strata > 0 {
		header += "  PVF [95% CI]"
	}
	fmt.Println(header)
	type point struct {
		n int
		f mixedrel.Format
	}
	var pts []point
	for _, n := range sizes {
		for _, f := range formats {
			pts = append(pts, point{n, f})
		}
	}
	// SIGINT/SIGTERM cancel the sweep: in-flight points drain, queued
	// points are skipped, and the exit is the distinct interrupted code
	// so wrappers can tell "stopped" from "failed".
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stopTelemetry, err := telOpts.Start()
	if err != nil {
		fail(err)
	}
	telemetry.Emit("sweep_start",
		telemetry.KV{K: "device", V: *deviceName},
		telemetry.KV{K: "kernel", V: *kernelName},
		telemetry.KV{K: "points", V: len(pts)},
		telemetry.KV{K: "trials", V: *trials},
		telemetry.KV{K: "seed", V: *seed})

	base := float64(sizes[0])
	var done atomic.Int64
	showProg := telemetry.ProgressActive()
	// Each (size, format) point is an independent campaign, so the grid
	// runs concurrently and the rows print in order afterwards.
	lines := make([]string, len(pts))
	err = exec.ForEachCtx(ctx, *workers, len(pts), func(i int) error {
		p := pts[i]
		kernel, scalePow, err := pickKernel(*kernelName, p.n, *seed)
		if err != nil {
			return err
		}
		// Keep the modeled machine workload a constant multiple of the
		// executed instance: ops grow as size^scalePow.
		ratio := pow(float64(p.n)/base, scalePow)
		w := mixedrel.NewWorkload(kernel, *opScale*ratio, *opScale/100*ratio)
		m, err := device.Map(w, p.f)
		if err != nil {
			return err
		}
		res, err := mixedrel.BeamExperiment{
			Mapping: m, Trials: *trials, Seed: *seed, Workers: *sampleWorkers,
			BehavioralDUE: *behavioralDUE, Context: ctx,
		}.Run()
		if err != nil {
			return err
		}
		lines[i] = fmt.Sprintf("%-6d  %-9v  %-12v  %-12.4g  %-12.4g  %-10.4g",
			p.n, p.f, m.Time.Round(1e6), res.FITSDC, res.FITDUE,
			mixedrel.MEBF(res.FITSDC, m.Time))
		if *strata > 0 {
			// The stratified injection campaign estimates the point's PVF
			// directly, with an honest interval — where the beam rows
			// above extrapolate from calibrated cross-sections.
			ic := mixedrel.InjectionCampaign{
				Kernel: kernel, Format: p.f, Faults: *pvfFaults, Seed: *seed,
				Workers: *sampleWorkers, Context: ctx,
				Sampling: &mixedrel.Sampling{
					Phases:      *strata,
					Adaptive:    *adaptive,
					CIHalfWidth: *ciHalfWidth,
				},
			}
			ires, err := ic.Run()
			if err != nil {
				return err
			}
			lines[i] += "  " + report.FormatCI(ires.StratifiedPVF, ires.PVFCILow, ires.PVFCIHigh)
		}
		if showProg {
			telemetry.Progressf("sweep: %d/%d points", done.Add(1), len(pts))
		}
		return nil
	})
	if stopErr := stopTelemetry(); stopErr != nil && err == nil {
		err = stopErr
	}
	if err != nil {
		if errors.Is(err, mixedrel.ErrInterrupted) || errors.Is(err, context.Canceled) {
			failInterrupted(err)
		}
		fail(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
}

func pow(x float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= x
	}
	return out
}

// pickKernel returns the kernel plus the exponent relating size to
// dynamic operation count (n^3 for the dense solvers, n^2 for the
// stencil and particle grids).
func pickKernel(name string, size int, seed uint64) (mixedrel.Kernel, int, error) {
	switch strings.ToLower(name) {
	case "mxm", "gemm":
		return mixedrel.NewGEMM(size, seed), 3, nil
	case "lud":
		return mixedrel.NewLUD(size, seed), 3, nil
	case "hotspot":
		return mixedrel.NewHotspot(size, 8, seed), 2, nil
	case "lavamd":
		return mixedrel.NewLavaMD(2, size, seed), 2, nil
	}
	return nil, 0, fmt.Errorf("unknown kernel %q", name)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}

// parseFormats resolves -formats against the device: empty means every
// paper precision the device supports, and an explicit format the
// device does not implement is an error, not a mid-sweep failure.
func parseFormats(s string, device mixedrel.Device) ([]mixedrel.Format, error) {
	var out []mixedrel.Format
	if s == "" {
		for _, f := range mixedrel.Formats {
			if device.Supports(f) {
				out = append(out, f)
			}
		}
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		f, err := fp.ParseFormat(part)
		if err != nil {
			return nil, err
		}
		if !device.Supports(f) {
			return nil, fmt.Errorf("%s does not implement %v", device.Name(), f)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no formats given")
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}

// failInterrupted reports a sweep stopped by SIGINT/SIGTERM: in-flight
// points drained cleanly, nothing was half-written, and the exit code
// (3) distinguishes "stopped on request" from a real failure (1).
func failInterrupted(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	fmt.Fprintln(os.Stderr, "sweep: interrupted; the sweep is deterministic, so a re-run with the same flags reproduces every point")
	os.Exit(3)
}

// failUsage reports a bad invocation: the error, then the flag set's
// usage text, then a non-zero exit (the conventional usage code 2).
func failUsage(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	flag.Usage()
	os.Exit(2)
}
