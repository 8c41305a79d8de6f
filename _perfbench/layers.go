package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"mixedrel/internal/arch"
	"mixedrel/internal/beam"
	"mixedrel/internal/core"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
	"mixedrel/internal/telemetry"
	"mixedrel/internal/traceir"
)

// metric is one reported reading.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// probeKernels are the kernels whose golden run, trace compile and
// artifact build the traced run times: the campaign workloads' kernels
// and core's fixtures. All are timed in single precision.
func probeKernels(o *options) []struct {
	name string
	mk   func() kernels.Kernel
} {
	return []struct {
		name string
		mk   func() kernels.Kernel
	}{
		{"mxm64", func() kernels.Kernel { return kernels.NewGEMM(64, derive(o.seed, 0, "gemm64")) }},
		{"mxm32", func() kernels.Kernel { return kernels.NewGEMM(32, derive(o.seed, 0, "gemm32")) }},
		{"lavamd", func() kernels.Kernel {
			return kernels.NewLavaMD(coneLavaDim, coneLavaPerBox, derive(o.seed, 0, "lavamd"))
		}},
		{"hotspot", func() kernels.Kernel { return kernels.NewHotspot(coneHotN, coneHotSteps, derive(o.seed, 0, "hotspot")) }},
		{"lud", func() kernels.Kernel { return kernels.NewLUD(16, coreSeedLUD) }},
		{"mnist", func() kernels.Kernel { return kernels.NewMNIST(1, coreSeedMNIST) }},
		{"yolo", func() kernels.Kernel { return kernels.NewYOLO(coreSeedYOLO) }},
	}
}

// campaignTags name the campaign workloads in per-layer metric names.
var campaignTags = []struct{ workload, tag string }{
	{"inject-served", "served"},
	{"inject-cone", "cone"},
	{"journal-resume", "journal"},
}

// perLayerNames lists every per-layer metric, in report order.
func perLayerNames(o *options) []string {
	var out []string
	for _, op := range []string{"add", "mul", "fma", "div", "exp"} {
		for _, f := range fp.Formats {
			out = append(out, fmt.Sprintf("fp.%s_ns.%v", op, f))
		}
	}
	for _, f := range fp.Formats {
		out = append(out, fmt.Sprintf("fp.gemm_ns_per_mac.%v", f))
	}
	for _, k := range probeKernels(o) {
		out = append(out, "kernels.golden_ms."+k.name, "traceir.compile_ms."+k.name,
			"traceir.regions."+k.name, "exec.artifact_ms."+k.name)
	}
	out = append(out, "kernels.mnist_build_s", "kernels.yolo_build_s")
	for _, c := range campaignTags {
		out = append(out, "inject.sample_us_p50."+c.tag, "inject.sample_us_tail."+c.tag,
			"inject.samples."+c.tag, "inject.ops_per_sample."+c.tag,
			"inject.cone_ops_per_sample."+c.tag, "traceir.served_frac."+c.tag,
			"trace.overhead_s."+c.tag, "trace.self_ratio."+c.tag)
	}
	out = append(out, "traceir.backoff_trips.served", "traceir.backoff_trips.cone",
		"inject.aborts", "inject.fault_draw_ns", "inject.space_build_ms", "inject.rounds",
		"stats.alloc_us_per_round",
		"exec.journal_record_us_p50", "exec.journal_record_us_tail", "exec.journal_fsyncs",
		"exec.fsync_ms_p50", "exec.fsync_ms_tail", "exec.journal_bytes_per_record",
		"exec.journal_load_ms", "exec.resume_ms",
		"exec.artifact_hit_ratio", "exec.jobs", "exec.helpers_peak", "exec.helpers_denied")
	for _, d := range devices {
		out = append(out, "arch.map_ms."+d.name, "beam.trials_per_s."+d.name)
	}
	out = append(out, "beam.inject_ratio")
	for _, d := range core.Experiments {
		out = append(out, "core."+d.ID+"_s")
	}
	out = append(out, "report.render_ms", "trace.overhead_s.repro")
	return out
}

// counters reads every telemetry counter and gauge.
func counters() map[string]uint64 {
	out := map[string]uint64{}
	for _, m := range telemetry.Snapshot() {
		out[m.Name] = m.Value
	}
	return out
}

// timed runs fn under a root span and returns its duration.
func timed(tr *tracer, name string, fn func()) time.Duration {
	id := tr.begin(name, -1, runID(tr))
	fn()
	tr.end(id)
	s := tr.slot(id)
	return time.Duration(s.End - s.Start)
}

func medianDuration(tr *tracer, name string, fn func()) time.Duration {
	var ds []float64
	for i := 0; i < 5; i++ {
		ds = append(ds, float64(timed(tr, name, fn)))
	}
	return time.Duration(median(ds))
}

// fpSink keeps the probes' results live.
var fpSink fp.Bits

// fpProbe times the softfloat machine's batch and scalar operations on
// operands drawn from the seed.
func fpProbe(o *options, tr *tracer, m map[string]metric) {
	const n = 2048
	const dim = 32
	for _, f := range fp.Formats {
		mach := fp.NewMachine(f)
		r := rng.New(derive(o.seed, "fp", f))
		draw := func(lo, hi float64, k int) []fp.Bits {
			out := make([]fp.Bits, k)
			for i := range out {
				out[i] = mach.FromFloat64(lo + (hi-lo)*r.Float64())
			}
			return out
		}
		a, b, c := draw(0.5, 2, n), draw(0.5, 2, n), draw(-1, 1, n)
		x := draw(-4, 4, n)
		dst := make([]fp.Bits, n)
		perOp := func(name string, ops int, fn func()) {
			d := medianDuration(tr, "fp."+name+"."+f.String(), fn)
			m[fmt.Sprintf("fp.%s.%v", name, f)] = metric{float64(d) / float64(ops), "ns"}
		}
		perOp("add_ns", n, func() { mach.AddN(dst, a, b); fpSink ^= dst[0] })
		perOp("mul_ns", n, func() { mach.MulN(dst, a, b); fpSink ^= dst[0] })
		perOp("fma_ns", n, func() { mach.FMAN(dst, a, b, c); fpSink ^= dst[0] })
		perOp("div_ns", n, func() {
			for i := range dst {
				dst[i] = mach.Div(a[i], b[i])
			}
			fpSink ^= dst[0]
		})
		perOp("exp_ns", n, func() {
			for i := range dst {
				dst[i] = mach.Exp(x[i])
			}
			fpSink ^= dst[0]
		})
		ga, gb := draw(-1, 1, dim*dim), draw(-1, 1, dim*dim)
		gout := make([]fp.Bits, dim*dim)
		perOp("gemm_ns_per_mac", dim*dim*dim, func() { mach.GemmFMA(gout, nil, ga, gb, dim, dim, dim); fpSink ^= gout[0] })
	}
}

// kernelProbe times, per kernel, its construction, a golden run on the
// plain machine, a trace record plus compile, and a cold artifact build.
func kernelProbe(o *options, tr *tracer, m map[string]metric) {
	for _, pk := range probeKernels(o) {
		var k kernels.Kernel
		d := timed(tr, "kernels.build."+pk.name, func() { k = pk.mk() })
		switch pk.name {
		case "mnist", "yolo":
			m["kernels."+pk.name+"_build_s"] = metric{d.Seconds(), "s"}
		}
		d = timed(tr, "kernels.golden."+pk.name, func() { kernels.Golden(k, fp.Single) })
		m["kernels.golden_ms."+pk.name] = metric{ms(d), "ms"}
		var prog *traceir.Program
		d = timed(tr, "traceir.compile."+pk.name, func() {
			rec := traceir.NewRecorder(fp.NewMachine(fp.Single))
			k.Run(rec, k.Inputs(fp.Single))
			prog = rec.Compile()
		})
		m["traceir.compile_ms."+pk.name] = metric{ms(d), "ms"}
		regions := 0
		if prog != nil {
			regions = len(prog.Regions())
		}
		m["traceir.regions."+pk.name] = metric{float64(regions), "count"}
		exec.ResetCache()
		d = timed(tr, "exec.artifact."+pk.name, func() { exec.Artifact(k, fp.Single, "", nil) })
		m["exec.artifact_ms."+pk.name] = metric{ms(d), "ms"}
	}
	exec.ResetCache()
}

// archBeamProbe times Device.Map over core's fixture kernels (one traced
// repro-quick prologue) and a beam campaign per device on core's MxM.
func archBeamProbe(o *options, tr *tracer, m map[string]metric) error {
	lo := tr.mark()
	if _, err := reproSetup(tr, -1, runID(tr)); err != nil {
		return err
	}
	spans := tr.since(lo)
	const trials = 400
	var injected, total uint64
	for _, d := range devices {
		m["arch.map_ms."+d.name] = metric{median(durations(spans, "arch.map."+d.name, -1)) / 1e6, "ms"}
		mp, err := d.dev.Map(arch.NewWorkload(kernels.NewGEMM(16, coreSeedGEMM), 1, 1), fp.Single)
		if err != nil {
			return fmt.Errorf("map mxm on %s: %w", d.name, err)
		}
		s0 := counters()["inject_samples"]
		var runErr error
		dur := timed(tr, "beam.run."+d.name, func() {
			_, runErr = beam.Experiment{Mapping: mp, Trials: trials, Seed: derive(o.seed, "beam", d.name), Workers: o.workers}.Run()
		})
		if runErr != nil {
			return fmt.Errorf("beam on %s: %w", d.name, runErr)
		}
		injected += counters()["inject_samples"] - s0
		total += trials
		m["beam.trials_per_s."+d.name] = metric{trials / dur.Seconds(), "1/s"}
	}
	m["beam.inject_ratio"] = metric{float64(injected) / float64(total), "ratio"}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is num/den, or 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sampleLayers are the spans of one sample's path through the layers;
// sequentialLayers the campaign-level layer calls during which the
// other workers wait, so each costs its duration once per worker.
// Weighted this way, their self times add up to the worker-time a
// campaign spends (wall x workers).
var (
	sampleLayers = map[string]bool{
		"sample": true, "inject.fault_draw": true, "inject.run_spec": true, "exec.journal_record": true,
	}
	sequentialLayers = map[string]bool{
		"stats.plan": true, "inject.space_build": true, "inject.new_runner": true,
		"exec.journal_open": true, "exec.journal_close": true, "exec.journal_decode": true,
	}
)

// tracePairs is how many untraced/traced unit pairs the traced pass runs
// per campaign workload.
const tracePairs = 5

// traceResult is the outcome of the traced pass.
type traceResult struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	// selfNs is the self time per span name, over all traced units.
	selfNs map[string]int64
	// tails says which percentile each _tail metric is.
	tails []string
}

// tail records the tail metric of xs under name.
func (r *traceResult) tail(name string, xs []float64, unit string) {
	v, p := tail(xs)
	r.metrics[name] = metric{v, unit}
	r.tails = append(r.tails, fmt.Sprintf("%s is p%g of %d samples", name, p, len(xs)))
}

// tracedPass runs every layer probe and, for each workload, an
// untraced unit next to a traced one: the traced unit must reproduce
// the untraced results byte for byte, and the difference of their wall
// times is the tracing overhead.
func tracedPass(o *options, tr *tracer) (*traceResult, error) {
	res := &traceResult{metrics: map[string]metric{}}
	m := res.metrics
	fpProbe(o, tr, m)
	kernelProbe(o, tr, m)
	if err := archBeamProbe(o, tr, m); err != nil {
		return nil, err
	}
	for _, ct := range campaignTags {
		wl, _ := findWorkload(ct.workload)
		// Untraced and traced units alternate, so the overhead and the
		// self-time ratio are medians over pairs run close together.
		var windows [][]span
		var overheads, ratios []float64
		delta := map[string]float64{}
		for i := 0; i < tracePairs; i++ {
			plain, err := wl.run(o, 0, nil)
			if err != nil {
				return nil, err
			}
			lo := tr.mark()
			c0 := counters()
			traced, err := wl.run(o, 0, tr)
			if err != nil {
				return nil, err
			}
			for k, v := range counters() {
				delta[k] += float64(v - c0[k])
			}
			w := tr.since(lo)
			windows = append(windows, w)
			res.absorb(o, ct.workload, plain, traced)
			res.addSelf(w)
			overheads = append(overheads, (traced.wall - plain.wall).Seconds())
			var sum int64
			for name, v := range layerSelf(w, func(s span) bool { return sampleLayers[s.Name] || sequentialLayers[s.Name] }) {
				if sequentialLayers[name] {
					v *= int64(o.workers)
				}
				sum += v
			}
			ratios = append(ratios, ratio(float64(sum), float64(plain.sampleWall)*float64(o.workers)))
		}
		// all returns the durations of every span named name, divided
		// by scale; perUnit a counter's delta per traced unit.
		all := func(name string, scale float64) []float64 {
			var out []float64
			for _, w := range windows {
				for _, d := range durations(w, name, -1) {
					out = append(out, d/scale)
				}
			}
			return out
		}
		perUnit := func(name string) float64 { return delta[name] / tracePairs }
		t := ct.tag
		samples := all("sample", 1e3)
		m["inject.sample_us_p50."+t] = metric{median(samples), "us"}
		res.tail("inject.sample_us_tail."+t, samples, "us")
		m["inject.samples."+t] = metric{float64(len(samples)) / tracePairs, "count"}
		ops := delta["inject_ops"]
		m["inject.ops_per_sample."+t] = metric{ratio(ops, delta["inject_samples"]), "ops"}
		m["inject.cone_ops_per_sample."+t] = metric{ratio(ops-delta["inject_replay_served"]-delta["inject_compare_served"], delta["inject_samples"]), "ops"}
		m["traceir.served_frac."+t] = metric{ratio(delta["inject_compare_served"], ops), "ratio"}
		m["trace.overhead_s."+t] = metric{median(overheads), "s"}
		m["trace.self_ratio."+t] = metric{median(ratios), "ratio"}
		m["inject.aborts"] = metric{m["inject.aborts"].Value + delta["inject_aborts"], "count"}
		switch t {
		case "served":
			m["traceir.backoff_trips.served"] = metric{perUnit("inject_backoff_trips"), "count"}
			m["inject.fault_draw_ns"] = metric{median(all("inject.fault_draw", 1)), "ns"}
		case "cone":
			m["traceir.backoff_trips.cone"] = metric{perUnit("inject_backoff_trips"), "count"}
			m["inject.space_build_ms"] = metric{median(all("inject.space_build", 1e6)), "ms"}
			// Each round is one allocation span and one stopping span.
			plans := all("stats.plan", 1e3)
			rounds := float64(len(plans) / 2)
			var planUs float64
			for _, d := range plans {
				planUs += d
			}
			m["inject.rounds"] = metric{rounds / tracePairs, "count"}
			m["stats.alloc_us_per_round"] = metric{ratio(planUs, rounds), "us"}
		case "journal":
			rec := all("exec.journal_record", 1e3)
			m["exec.journal_record_us_p50"] = metric{median(rec), "us"}
			res.tail("exec.journal_record_us_tail", rec, "us")
			m["exec.journal_fsyncs"] = metric{perUnit("checkpoint_fsyncs"), "count"}
			fs := all("exec.fsync", 1e6)
			m["exec.fsync_ms_p50"] = metric{median(fs), "ms"}
			res.tail("exec.fsync_ms_tail", fs, "ms")
			m["exec.journal_bytes_per_record"] = metric{tr.notes["exec.journal_bytes_per_record"], "bytes"}
			m["exec.journal_load_ms"] = metric{median(all("exec.journal_load", 1e6)), "ms"}
			m["exec.resume_ms"] = metric{median(all("exec.resume", 1e6)), "ms"}
		}
	}

	// repro-quick: the first (cold) pass is the byte reference and
	// builds core's fixtures; a second untraced pass is the overhead
	// baseline for the traced one, which runs with the same warm
	// fixtures.
	ref := runReproPass(o, nil, 0, false)
	cli, err := reproduceCLI(o)
	if err != nil {
		return nil, err
	}
	plain := runReproPass(o, nil, 0, false)
	lo := tr.mark()
	c0 := counters()
	traced := runReproPass(o, tr, runID(tr), false)
	c1 := counters()
	spans := tr.since(lo)
	res.absorb(o, "repro-quick", passUnit(ref, cli), passUnit(traced, cli))
	if plain.err != nil || !bytes.Equal(plain.out, ref.out) {
		res.problems = append(res.problems, "repro-quick: a second in-process pass renders different tables")
	}
	for _, d := range core.Experiments {
		m["core."+d.ID+"_s"] = metric{median(durations(spans, "core."+d.ID, -1)) / 1e9, "s"}
	}
	var render float64
	for _, d := range durations(spans, "report.render", -1) {
		render += d
	}
	m["report.render_ms"] = metric{render / 1e6, "ms"}
	m["trace.overhead_s.repro"] = metric{(traced.wall - plain.wall).Seconds(), "s"}
	lookups := float64(c1["exec_artifact_lookups"] - c0["exec_artifact_lookups"])
	computes := float64(c1["exec_artifact_computes"] - c0["exec_artifact_computes"])
	m["exec.artifact_hit_ratio"] = metric{ratio(lookups-computes, lookups), "ratio"}
	m["exec.jobs"] = metric{float64(c1["exec_jobs"] - c0["exec_jobs"]), "count"}
	m["exec.helpers_peak"] = metric{float64(c1["exec_helpers_peak"]), "count"}
	m["exec.helpers_denied"] = metric{float64(c1["exec_helpers_denied"] - c0["exec_helpers_denied"]), "count"}
	res.addSelf(spans)
	return res, nil
}

// passUnit is the accounting and checks of one reproduction pass; cli is
// cmd/reproduce's output at the same seed.
func passUnit(p *reproPass, cli []byte) *unit {
	un := &unit{attempted: int(p.samples), digest: digestOf(p.out)}
	if p.err != nil {
		un.problems = append(un.problems, p.err.Error())
	}
	un.problems = append(un.problems, checkRepro(p.out, cli)...)
	if un.attempted == 0 {
		un.attempted = 1
	}
	if len(un.problems) > 0 {
		un.failed = un.attempted
	}
	return un
}

// absorb checks a traced unit against its untraced twin (and, at the
// default seed, the untraced one against its recorded digest) and adds
// its samples to the pass's accounting.
func (r *traceResult) absorb(o *options, name string, plain, traced *unit) {
	r.attempted += traced.attempted
	r.failed += traced.failed
	for _, p := range append(plain.problems, traced.problems...) {
		r.problems = append(r.problems, name+": "+p)
	}
	fail := func(p string) {
		r.problems = append(r.problems, name+": "+p)
		r.failed += traced.attempted - traced.failed
	}
	if plain.digest != traced.digest {
		fail("traced results differ from untraced ones")
	} else if want, err := expectedDigest(name); err != nil || (o.seed == defaultSeed && want != "" && want != plain.digest) {
		fail(fmt.Sprintf("results digest %s, recorded %s (%v)", plain.digest, want, err))
	}
}

func (r *traceResult) addSelf(spans []span) {
	if r.selfNs == nil {
		r.selfNs = map[string]int64{}
	}
	for k, v := range layerSelf(spans, func(span) bool { return true }) {
		r.selfNs[k] += v
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
