// Command reproduce regenerates every table and figure of the paper
// from the simulation models. Use -only to run a single experiment and
// -quick for reduced campaign sizes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"mixedrel/internal/core"
	"mixedrel/internal/exec"
	"mixedrel/internal/report"
)

// options is reproduce's validated command line.
type options struct {
	only core.Definition // the experiment -only selects; zero runs all
	list bool
	csv  bool
	cfg  core.Config
}

// parseArgs parses and validates the command line. A bad flag, value or
// argument is reported on errOut followed by the usage text, so that it
// fails before any campaign runs rather than panicking or silently
// falling back to a default mid-run.
func parseArgs(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(errOut)
	only := fs.String("only", "", "run a single experiment id (e.g. fig10a); empty runs all")
	quick := fs.Bool("quick", false, "reduced campaign sizes for a fast pass")
	seed := fs.Uint64("seed", 2019, "campaign sampling seed")
	trials := fs.Int("trials", 2000, "beam strikes per configuration")
	faults := fs.Int("faults", 2000, "injected faults per configuration")
	list := fs.Bool("list", false, "list experiment ids and exit")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "goroutine bound for this process: campaigns and their samples run concurrently; never changes the tables")
	sampleWorkers := fs.Int("sample-workers", 1, "above 1, each campaign draws per-sample streams: a different sample, still deterministic; sampling already uses -workers cores")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o := &options{list: *list, csv: *csv, cfg: core.Config{Seed: *seed, Trials: *trials, Faults: *faults,
		Quick: *quick, Workers: *workers, SampleWorkers: *sampleWorkers}}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *trials <= 0:
		err = fmt.Errorf("-trials must be positive, got %d", *trials)
	case *faults <= 0:
		err = fmt.Errorf("-faults must be positive, got %d", *faults)
	case *workers <= 0:
		err = fmt.Errorf("-workers must be positive, got %d", *workers)
	case *sampleWorkers <= 0:
		err = fmt.Errorf("-sample-workers must be positive, got %d", *sampleWorkers)
	case *only != "":
		var ok bool
		if o.only, ok = core.Get(*only); !ok {
			err = fmt.Errorf("unknown experiment %q (try -list)", *only)
		}
	}
	if err != nil {
		fmt.Fprintln(errOut, "reproduce:", err)
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
	exec.SetMaxWorkers(o.cfg.Workers)
	if o.list {
		for _, d := range core.Experiments {
			fmt.Printf("%-8s %s\n", d.ID, d.Title)
		}
		return
	}
	run := core.Experiments
	if o.only.ID != "" {
		run = []core.Definition{o.only}
	}
	for _, d := range run {
		t, err := d.Run(o.cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %s: %v\n", d.ID, err)
			os.Exit(1)
		}
		if err := render(t, o.csv); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
	}
}

// render writes one table in the selected output format.
func render(t *report.Table, csv bool) error {
	if csv {
		return t.WriteCSV(os.Stdout)
	}
	return t.WriteASCII(os.Stdout)
}
