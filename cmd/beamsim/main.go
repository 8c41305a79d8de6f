// Command beamsim runs a single simulated neutron-beam campaign: pick a
// device, a kernel, and a precision; get SDC/DUE FIT rates, the outcome
// breakdown per resource class, and the TRE FIT-reduction curve.
//
// Example:
//
//	beamsim -device gpu -kernel mxm -format half -trials 5000
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"mixedrel"
	"mixedrel/internal/arch"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
)

// options is beamsim's validated command line.
type options struct {
	device        mixedrel.Device
	kernel        func() mixedrel.Kernel // builds the kernel (MNIST trains its weights)
	format        mixedrel.Format
	trials        int
	seed          uint64
	opScale       float64
	dataScale     float64
	json          bool
	workers       int
	sampleWorkers int
}

// parseArgs parses and validates the command line. A bad flag, value or
// argument is reported on errOut followed by the usage text, so that it
// fails before the campaign runs rather than panicking in it.
func parseArgs(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("beamsim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	deviceName := fs.String("device", "gpu", "device model: fpga, xeonphi, gpu")
	kernelName := fs.String("kernel", "mxm", "kernel: mxm, lavamd, lud, hotspot, cg, micro-add, micro-mul, micro-fma, mnist, yolo")
	formatName := fs.String("format", "single", "precision: half, bfloat16, single, double")
	trials := fs.Int("trials", 2000, "simulated strikes")
	seed := fs.Uint64("seed", 1, "campaign seed")
	size := fs.Int("size", 16, "kernel size parameter (matrix n, micro ops/thread)")
	opScale := fs.Float64("opscale", 1e6, "paper-scale multiplier for dynamic operations")
	dataScale := fs.Float64("datascale", 1e3, "paper-scale multiplier for resident data")
	jsonOut := fs.Bool("json", false, "emit the raw campaign result as JSON")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "scheduler goroutine bound for this process")
	sampleWorkers := fs.Int("sample-workers", 1, "above 1, trials draw per-sample streams: a different sample, still deterministic; sampling already uses -workers cores")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o := &options{trials: *trials, seed: *seed, opScale: *opScale, dataScale: *dataScale, json: *jsonOut,
		workers: *workers, sampleWorkers: *sampleWorkers}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *trials <= 0:
		err = fmt.Errorf("-trials must be positive, got %d", *trials)
	case *size <= 0:
		err = fmt.Errorf("-size must be positive, got %d", *size)
	case !(*opScale > 0):
		err = fmt.Errorf("-opscale must be positive, got %g", *opScale)
	case !(*dataScale > 0):
		err = fmt.Errorf("-datascale must be positive, got %g", *dataScale)
	case *workers <= 0:
		err = fmt.Errorf("-workers must be positive, got %d", *workers)
	case *sampleWorkers <= 0:
		err = fmt.Errorf("-sample-workers must be positive, got %d", *sampleWorkers)
	}
	if err == nil {
		o.device, err = mixedrel.ParseDevice(*deviceName)
	}
	if err == nil {
		o.kernel, err = mixedrel.ParseKernel(*kernelName, *size, *seed)
	}
	if err == nil {
		o.format, err = fp.ParseFormat(*formatName)
	}
	if err == nil && !o.device.Supports(o.format) {
		err = fmt.Errorf("%s does not implement %v", o.device.Name(), o.format)
	}
	if err != nil {
		fmt.Fprintln(errOut, "beamsim:", err)
		fs.Usage()
		return nil, err
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	exec.SetMaxWorkers(o.workers)
	device, kernel, format := o.device, o.kernel(), o.format

	m, err := device.Map(mixedrel.NewWorkload(kernel, o.opScale, o.dataScale), format)
	if err != nil {
		fail(err)
	}
	res, err := mixedrel.BeamExperiment{Mapping: m, Trials: o.trials, Seed: o.seed,
		Workers: o.sampleWorkers}.Run()
	if err != nil {
		fail(err)
	}

	if o.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Device, Kernel, Format string
			ExecSeconds            float64
			MEBF                   float64
			*mixedrel.BeamResult
		}{device.Name(), kernel.Name(), format.String(), m.Time.Seconds(),
			mixedrel.MEBF(res.FITSDC, m.Time), res}); err != nil {
			fail(err)
		}
		return
	}

	fmt.Printf("device    %s\nkernel    %s\nformat    %v\n", device.Name(), kernel.Name(), format)
	fmt.Printf("exec time %v (paper scale)\n", m.Time)
	fmt.Printf("exposure  %.4g bits x sigma (a.u.)\n", res.ExposureRate)
	fmt.Printf("outcomes  SDC %d | DUE %d | masked %d of %d strikes\n",
		res.SDC, res.DUE, res.Masked, res.Trials)
	fmt.Printf("FIT-SDC   %.4g  [%.4g, %.4g] 95%% CI\n", res.FITSDC, res.FITSDCLo, res.FITSDCHi)
	fmt.Printf("FIT-DUE   %.4g\n", res.FITDUE)
	fmt.Printf("MEBF      %.4g\n", mixedrel.MEBF(res.FITSDC, m.Time))
	fmt.Println("\nper resource class:")
	classes := make([]arch.ResourceClass, 0, len(res.ByClass))
	for class := range res.ByClass {
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, class := range classes {
		cc := res.ByClass[class]
		fmt.Printf("  %-16v strikes %5d  SDC %5d  DUE %4d  masked %5d\n",
			class, cc.Strikes, cc.SDC, cc.DUE, cc.Masked)
	}
	fmt.Println("\nTRE curve:")
	for _, p := range mixedrel.TRECurve(res.FITSDC, res.RelErrs, nil) {
		fmt.Printf("  TRE %6.3g%%  FIT %.4g  (-%5.1f%%)\n", 100*p.TRE, p.FIT, 100*p.Reduction)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "beamsim:", err)
	os.Exit(1)
}
