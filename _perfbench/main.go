// Command perfbench is the repository benchmark: it runs one workload
// cold for a fixed time, checks every result, and prints each metric by
// name with its unit, ending with one JSON result line. With -trace 1 it
// instead runs the traced pass, which covers every workload, and prints
// the per-layer metrics. The compare subcommand judges two sets of runs
// (parent vs change).
//
//	perfbench -workload inject-served -seed 2019 -seconds 20 -trace 0 -reproduce bin/reproduce
//	perfbench -seed 2019 -trace 1 -reproduce bin/reproduce
//	perfbench compare parent-runs/ change-runs/
//
// See README.md in this directory.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"mixedrel/internal/exec"
)

// defaultSeed is cmd/reproduce's default seed; expected.json records
// each workload's first-unit digest at this seed.
const defaultSeed = 2019

//go:embed expected.json
var expectedJSON []byte

// endToEndNames are the end-to-end metrics every untraced run reports,
// in BENCHMARK.json order.
var endToEndNames = []string{"setup_s", "wall_s", "samples_per_s", "samples_spent", "alloc_mb", "peak_rss_mb"}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: repro-quick, inject-served, inject-cone or journal-resume (ignored by -trace 1, which runs them all)")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; kernel inputs and campaign seeds derive from it")
	seconds := flag.Float64("seconds", 20, "how long to repeat cold units of the workload (at least its fixed units run)")
	trace := flag.Int("trace", 0, "1 runs the traced pass over every workload and prints per-layer metrics instead")
	scratch := flag.String("scratch", ".bench_build/tmp", "directory for journals and the span dump")
	reproduce := flag.String("reproduce", "", "cmd/reproduce binary whose -quick output repro-quick's tables must equal")
	flag.Parse()

	wl, ok := findWorkload(*name)
	if (!ok && *trace == 0) || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v) unless -trace 1, -trace 0|1 and -seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := &options{seed: *seed, seconds: *seconds, workers: runtime.NumCPU(), scratch: *scratch, reproduce: *reproduce}
	exec.SetMaxWorkers(o.workers)
	label := wl.name
	if *trace == 1 {
		label = "all (traced pass)"
	}
	fmt.Printf("perfbench: workload %s, seed %d, %d workers (nproc %d, GOMAXPROCS %d, %s)\n",
		label, o.seed, o.workers, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(o)
	} else {
		res, err = runWorkload(o, wl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// expectedDigest returns the recorded first-unit digest of a workload
// (for -trace 1, of the traced pass's units) at the default seed.
func expectedDigest(name string) (string, error) {
	var exp map[string]string
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return "", fmt.Errorf("expected.json: %w", err)
	}
	return exp[name], nil
}

// runWorkload runs the workload's fixed units, then repeats cold units
// until the time is up (one unit for a workload that is cold only once
// per process), and reports the end-to-end metrics. The times are
// medians over every unit, each scaled by the host's slowdown over the
// unit (calib.go); the counts and allocations come from the fixed units
// only, so they measure the same inputs however fast the host or the
// code is.
func runWorkload(o *options, wl workload) (*result, error) {
	var units []*unit
	start := time.Now()
	var slow float64
	if !wl.once {
		slow = hostSlowdown(o.workers)
	}
	for u := 0; ; u++ {
		// Each unit starts, like a fresh process, from a collected heap
		// with its free memory returned to the OS, so one unit's garbage
		// neither lands in the next one's timing nor raises its peak, and
		// the peak does not creep with the number of units run.
		debug.FreeOSMemory()
		un, err := wl.run(o, u, nil)
		if err != nil {
			return nil, err
		}
		if !wl.once {
			after := hostSlowdown(o.workers)
			un.scale(slow, after)
			slow = after
		}
		// Only the digest is needed from here on; keeping every unit's
		// encoded results would grow the heap, and so peak_rss_mb, with
		// the number of units the host managed to run.
		un.results = nil
		units = append(units, un)
		if wl.once || (len(units) >= wl.fixed && time.Since(start).Seconds() >= o.seconds) {
			break
		}
	}
	if o.seed == defaultSeed {
		want, err := expectedDigest(wl.name)
		if err != nil {
			return nil, err
		}
		if want != "" && units[0].digest != want {
			units[0].problems = append(units[0].problems,
				fmt.Sprintf("results digest %s, recorded %s", units[0].digest, want))
			units[0].failed = units[0].attempted
		}
	}

	var setups, walls, rawWalls, slows, rates, spent, allocs []float64
	res := &result{Metrics: map[string]metric{}}
	for i, un := range units {
		for _, d := range un.setups {
			setups = append(setups, d.Seconds())
		}
		walls = append(walls, un.wall.Seconds())
		rawWalls = append(rawWalls, un.rawWall.Seconds())
		slows = append(slows, un.slowdown)
		rates = append(rates, float64(un.samples)/un.wall.Seconds())
		if i < wl.fixed {
			spent = append(spent, float64(un.spent))
			allocs = append(allocs, float64(un.alloc)/(1<<20))
		}
		res.Attempted += un.attempted
		res.Failed += un.failed
		for _, p := range un.problems {
			fmt.Printf("CHECK FAILED unit %d: %s\n", i, p)
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["wall_s"] = metric{median(walls), "s"}
	res.Metrics["samples_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["samples_spent"] = metric{median(spent), "count"}
	res.Metrics["alloc_mb"] = metric{median(allocs), "MiB"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}

	wallTail, wallPct := tail(walls)
	wallQ1, _, wallQ3 := quartiles(walls)
	fmt.Printf("units %d, %d fixed (digest of unit 0: %s)\n", len(units), min(wl.fixed, len(units)), units[0].digest)
	fmt.Printf("%-16s %12.6g s    median of %d cold set-ups\n", "setup_s", res.Metrics["setup_s"].Value, len(setups))
	fmt.Printf("%-16s %12.6g s    median of %d units; q1 %.6g, q3 %.6g, p%g %.6g s\n", "wall_s",
		res.Metrics["wall_s"].Value, len(walls), wallQ1, wallQ3, wallPct, wallTail)
	fmt.Printf("%-16s %12.6g s    median of the raw unit times; host slowdown median %.4g\n", "raw wall",
		median(rawWalls), median(slows))
	fmt.Printf("%-16s %12.6g 1/s  median per unit\n", "samples_per_s", res.Metrics["samples_per_s"].Value)
	fmt.Printf("%-16s %12.6g      median per fixed unit\n", "samples_spent", res.Metrics["samples_spent"].Value)
	fmt.Printf("%-16s %12.6g MiB  median per fixed unit timed phase\n", "alloc_mb", res.Metrics["alloc_mb"].Value)
	fmt.Printf("%-16s %12.6g MiB  process maximum\n", "peak_rss_mb", res.Metrics["peak_rss_mb"].Value)
	fmt.Printf("%-16s %12d      of %d attempted samples\n", "failed", res.Failed, res.Attempted)
	return res, nil
}

// runTraced runs the traced pass and reports every per-layer metric.
// The per-layer set spans every workload, so the pass runs them all and
// -workload does not select anything in it.
func runTraced(o *options) (*result, error) {
	tr := newTracer()
	tp, err := tracedPass(o, tr)
	if err != nil {
		return nil, err
	}
	dump := filepath.Join(o.scratch, fmt.Sprintf("spans-%d.jsonl", o.seed))
	if f, err := os.Create(dump); err == nil {
		werr := tr.writeJSONL(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: span dump:", werr)
		}
	}
	res := &result{Metrics: map[string]metric{}, Attempted: tp.attempted, Failed: tp.failed}
	for _, p := range tp.problems {
		fmt.Printf("CHECK FAILED %s\n", p)
	}
	res.Correct = len(tp.problems) == 0
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	for _, name := range perLayerNames(o) {
		v, ok := tp.metrics[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		res.Metrics[name] = v
		fmt.Printf("%-36s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, t := range tp.tails {
		fmt.Println(t)
	}
	fmt.Println("self time by span name (all traced units):")
	for _, k := range sortedKeys(tp.selfNs) {
		fmt.Printf("  %-34s %12.3f ms\n", k, float64(tp.selfNs[k])/1e6)
	}
	fmt.Printf("spans written to %s\n", dump)
	return res, nil
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
