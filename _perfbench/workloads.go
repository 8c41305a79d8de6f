package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mixedrel/internal/arch"
	"mixedrel/internal/core"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/fpga"
	"mixedrel/internal/gpu"
	"mixedrel/internal/inject"
	"mixedrel/internal/kernels"
	"mixedrel/internal/report"
	"mixedrel/internal/xeonphi"
)

// options are one benchmark run's settings.
type options struct {
	seed    uint64
	seconds float64
	workers int
	// scratch holds the journals of the journal-resume workload.
	scratch string
	// reproduce is the cmd/reproduce binary whose -quick output the
	// repro-quick tables must equal.
	reproduce string
}

// unit is one cold repetition of a workload: set-up (cache dropped,
// kernels constructed, artifacts built) followed by the timed phase.
type unit struct {
	// setups and wall are scaled by the host's slowdown (calib.go);
	// rawWall is wall as measured, and slowdown the factor between them.
	setups   []time.Duration
	wall     time.Duration
	rawWall  time.Duration
	slowdown float64
	// sampleWall is the part of wall that draws and classifies samples
	// (all of it, except the resume of journal-resume).
	sampleWall time.Duration
	// samples is the inject_samples counter delta over the timed phase.
	samples uint64
	// spent is how many samples the unit's campaigns used to meet their
	// stopping rule: the CI target on inject-cone, the fixed budget
	// elsewhere.
	spent int
	// alloc is the TotalAlloc delta over the timed phase, in bytes.
	alloc     uint64
	attempted int
	failed    int
	// digest is the SHA-256 of the unit's rendered results.
	digest   string
	problems []string
	// results are the JSON encodings of the unit's campaign results, in
	// campaign order (empty for repro-quick).
	results [][]byte
}

// workload is one benchmark input set. run executes unit u, whose
// kernel inputs and campaign seeds derive from (--seed, u): a run's
// medians then average over many inputs, so they vary little from one
// --seed to the next. With a tracer it records spans around every layer
// call and must produce the same results as the untraced unit.
type workload struct {
	name string
	// once marks a workload whose unit is cold only once per process.
	once bool
	// fixed is how many units every run completes, however long they
	// take; the count metrics come from these units alone. Each workload's
	// fixed units take at most half of a 20 s run on a 2-vCPU host.
	fixed int
	run   func(o *options, u int, tr *tracer) (*unit, error)
}

var workloads = []workload{
	{name: "repro-quick", once: true, fixed: 1, run: reproUnit},
	{name: "inject-served", fixed: 16, run: servedUnit},
	{name: "inject-cone", fixed: 12, run: coneUnit},
	{name: "journal-resume", fixed: 16, run: journalUnit},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Campaign sizes. inject-served and journal-resume spend a fixed budget;
// inject-cone stops at its CI half-width target, with the budget only a
// cap it never reaches.
const (
	servedFaults  = 2000
	journalFaults = 20000
	coneBudget    = 40000
	coneRound     = 64
	coneHalfWidth = 0.02
	journalEvery  = 2048
)

// inject-cone's kernel sizes: LavaMD(2,4), core's own LavaMD size, and
// Hotspot(16,8). They keep a unit near 0.4 s on a 2-vCPU host, so a
// run's median is over tens of units and a burst of contention on a
// shared host moves only the few units it overlaps.
const (
	coneLavaDim, coneLavaPerBox = 2, 4
	coneHotN, coneHotSteps      = 16, 8
)

// derive maps the workload seed and a label to an independent seed, so
// kernel inputs and campaign samples all follow from --seed.
func derive(seed uint64, parts ...any) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprint(h, "/", p)
	}
	return h.Sum64()
}

// phase measures the timed part of a unit.
type phase struct {
	t0       time.Time
	samples0 uint64
	alloc0   uint64
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// startPhase collects the heap first, so that set-up garbage is neither
// collected on the phase's clock nor stacked on its peak.
func startPhase() phase {
	runtime.GC()
	return phase{samples0: counters()["inject_samples"], alloc0: totalAlloc(), t0: time.Now()}
}

// stop returns the phase's wall time, allocated bytes and classified
// samples.
func (p phase) stop() (wall time.Duration, alloc, samples uint64) {
	wall = time.Since(p.t0)
	return wall, totalAlloc() - p.alloc0, counters()["inject_samples"] - p.samples0
}

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---- campaign workloads ---------------------------------------------

// servedCampaigns are inject-served's fixed-budget uniform
// operand+memory campaigns on GEMM(64), one per precision. Most of
// their executed operations are answered by the compiled trace
// program's exact operand compare.
func servedCampaigns(o *options, u int) []inject.Campaign {
	k := kernels.NewGEMM(64, derive(o.seed, u, "gemm64"))
	var cs []inject.Campaign
	for _, f := range fp.Formats {
		cs = append(cs, inject.Campaign{Kernel: k, Format: f, Faults: servedFaults,
			Seed: derive(o.seed, u, "served", f), Workers: o.workers,
			Sites: []inject.Site{inject.SiteOperand, inject.SiteMemory}})
	}
	return cs
}

// coneCampaigns are inject-cone's adaptive stratified campaigns to a 95%
// CI half-width target, over operand, memory and control sites, where
// the softfloat recompute of each fault's dependent cone dominates.
func coneCampaigns(o *options, u int) []inject.Campaign {
	lava := kernels.NewLavaMD(coneLavaDim, coneLavaPerBox, derive(o.seed, u, "lavamd"))
	hot := kernels.NewHotspot(coneHotN, coneHotSteps, derive(o.seed, u, "hotspot"))
	mk := func(k kernels.Kernel, f fp.Format, hw float64) inject.Campaign {
		return inject.Campaign{Kernel: k, Format: f, Faults: coneBudget,
			Seed: derive(o.seed, u, "cone", k.Name(), f), Workers: o.workers,
			Sites: []inject.Site{inject.SiteOperand, inject.SiteMemory, inject.SiteControl},
			Sampling: &inject.Sampling{Phases: 3, Bands: inject.DefaultBitBands(f), Confidence: 0.95,
				CIHalfWidth: hw, Adaptive: true, Round: coneRound, MinPerStratum: 8}}
	}
	return []inject.Campaign{
		mk(lava, fp.Double, coneHalfWidth),
		mk(lava, fp.Half, coneHalfWidth),
		mk(hot, fp.Single, coneHalfWidth),
	}
}

// journalCampaign is journal-resume's checkpointed uniform GEMM(32)
// single-precision campaign, journaled under dir. It syncs every
// journalEvery samples rather than the default 64: on a shared disk the
// fsync latency other tenants cause would otherwise swamp the journal's
// own cost from run to run. The traced pass still times every fsync.
func journalCampaign(o *options, u int, dir string) inject.Campaign {
	return inject.Campaign{Kernel: kernels.NewGEMM(32, derive(o.seed, u, "gemm32")), Format: fp.Single,
		Faults: journalFaults, Seed: derive(o.seed, u, "journal"), Workers: o.workers,
		Sites:      []inject.Site{inject.SiteOperand, inject.SiteMemory},
		Checkpoint: &exec.Checkpoint{Path: filepath.Join(dir, "campaign.ckpt"), Every: journalEvery}}
}

// campaignSetups is how many times a campaign unit repeats its cold
// set-up; each repetition is one set-up sample.
const campaignSetups = 3

// coldSetup drops the artifact memo, constructs the unit's kernels and
// builds the artifacts of every campaign's configuration: the set-up a
// fresh carolfi process pays. The last repetition's campaigns are used.
// Each repetition starts from a collected heap, so the garbage of the
// one before is neither collected on its clock nor stacked on its peak.
func coldSetup(build func() []inject.Campaign) ([]inject.Campaign, []time.Duration) {
	var cs []inject.Campaign
	var ds []time.Duration
	for i := 0; i < campaignSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		exec.ResetCache()
		cs = build()
		for _, c := range cs {
			inject.NewRunner(c.Kernel, c.Format, c.WrapKey, c.Wrap)
		}
		ds = append(ds, time.Since(t0))
	}
	return cs, ds
}

func servedUnit(o *options, u int, tr *tracer) (*unit, error) {
	cs, setups := coldSetup(func() []inject.Campaign { return servedCampaigns(o, u) })
	return runCampaigns(tr, cs, setups)
}

func coneUnit(o *options, u int, tr *tracer) (*unit, error) {
	cs, setups := coldSetup(func() []inject.Campaign { return coneCampaigns(o, u) })
	return runCampaigns(tr, cs, setups)
}

// runCampaigns times a unit's campaigns and checks their results.
func runCampaigns(tr *tracer, cs []inject.Campaign, setups []time.Duration) (*unit, error) {
	un := &unit{setups: setups}
	results := make([]*inject.Result, len(cs))
	errs := make([]error, len(cs))
	ph := startPhase()
	for i, c := range cs {
		if tr != nil {
			results[i], errs[i] = tracedCampaign(c, tr, runID(tr))
		} else {
			results[i], errs[i] = c.Run()
		}
	}
	un.wall, un.alloc, un.samples = ph.stop()
	un.sampleWall = un.wall
	for i, c := range cs {
		un.account(c, results[i], errs[i])
	}
	un.digest = digestOf(un.results...)
	return un, nil
}

// scale divides the unit's set-up and wall times by the mean host
// slowdown of the reference runs before and after it.
func (un *unit) scale(before, after float64) {
	un.rawWall, un.slowdown = un.wall, (before+after)/2
	un.wall = scaled(un.wall, before, after)
	for i, d := range un.setups {
		un.setups[i] = scaled(d, before, after)
	}
}

// account adds one campaign's samples and checks to the unit. A
// campaign error or a failed check counts every sample it attempted as
// failed; an aborted sample counts alone.
func (un *unit) account(c inject.Campaign, r *inject.Result, err error) {
	label := fmt.Sprintf("%s/%v", c.Kernel.Name(), c.Format)
	if err != nil {
		un.attempted += c.Faults
		un.failed += c.Faults
		un.problems = append(un.problems, fmt.Sprintf("%s: %v", label, err))
		return
	}
	un.attempted += r.Faults
	un.spent += r.Faults
	probs := checkCampaign(c, r)
	// A copy with one SDC added must fail the same check: a check that
	// accepts it would not catch a wrong result either.
	perturbed := *r
	perturbed.SDCs++
	if len(checkCampaign(c, &perturbed)) == 0 {
		probs = append(probs, "the check accepts the result with one SDC added")
	}
	if len(probs) > 0 {
		un.failed += r.Faults
		for _, p := range probs {
			un.problems = append(un.problems, label+": "+p)
		}
	} else {
		un.failed += len(r.Aborted)
	}
	js, jerr := json.Marshal(r)
	if jerr != nil {
		un.problems = append(un.problems, fmt.Sprintf("%s: encode result: %v", label, jerr))
	}
	un.results = append(un.results, js)
}

// checkCampaign returns what is wrong with one campaign's result.
func checkCampaign(c inject.Campaign, r *inject.Result) []string {
	var probs []string
	sum := r.Masked + r.SDCs + r.CrashDUEs + r.HangDUEs + len(r.Aborted)
	if sum != r.Faults {
		probs = append(probs, fmt.Sprintf("outcomes sum to %d, %d samples attempted", sum, r.Faults))
	}
	if len(r.Aborted) > 0 {
		probs = append(probs, fmt.Sprintf("%d aborted samples (first: %s)", len(r.Aborted), r.Aborted[0].Panic))
	}
	if len(r.RelErrs) != r.SDCs {
		probs = append(probs, fmt.Sprintf("%d relative errors for %d SDCs", len(r.RelErrs), r.SDCs))
	}
	if r.PVF < 0 || r.PVF > 1 || r.PDUE < 0 || r.PDUE > 1 {
		probs = append(probs, fmt.Sprintf("PVF %g or PDUE %g outside [0,1]", r.PVF, r.PDUE))
	}
	if c.Sampling == nil {
		if r.Faults != c.Faults {
			probs = append(probs, fmt.Sprintf("%d samples for a fixed budget of %d", r.Faults, c.Faults))
		}
		return probs
	}
	n := 0
	for _, s := range r.Strata {
		n += s.Faults
		if s.SDCs+s.DUEs+s.Masked > s.Faults {
			probs = append(probs, fmt.Sprintf("stratum %s classifies more samples than it took", s.Desc))
		}
	}
	if n != r.Faults {
		probs = append(probs, fmt.Sprintf("strata took %d samples, campaign %d", n, r.Faults))
	}
	if !r.EarlyStopped {
		probs = append(probs, fmt.Sprintf("CI target %g not reached within %d samples", c.Sampling.CIHalfWidth, c.Faults))
	}
	if r.PVFCILow > r.StratifiedPVF || r.StratifiedPVF > r.PVFCIHigh {
		probs = append(probs, fmt.Sprintf("stratified PVF %g outside its CI [%g, %g]", r.StratifiedPVF, r.PVFCILow, r.PVFCIHigh))
	}
	return probs
}

// journalUnit journals a campaign to a fresh directory on the real
// filesystem, then re-runs it against the complete journal. The timed
// phase covers both; the resumed result must equal the journaled one.
func journalUnit(o *options, u int, tr *tracer) (*unit, error) {
	dir, err := os.MkdirTemp(o.scratch, "journal-")
	if err != nil {
		return nil, fmt.Errorf("journal dir: %w", err)
	}
	defer os.RemoveAll(dir)
	cs, setups := coldSetup(func() []inject.Campaign { return []inject.Campaign{journalCampaign(o, u, dir)} })
	c := cs[0]
	un := &unit{setups: setups}
	ph := startPhase()
	var first, resumed *inject.Result
	var err1, err2 error
	if tr != nil {
		first, resumed, err1, err2 = tracedJournal(c, tr, runID(tr))
	} else {
		first, err1 = c.Run()
		un.sampleWall = time.Since(ph.t0)
		if err1 == nil {
			resumed, err2 = c.Run()
		}
	}
	un.wall, un.alloc, un.samples = ph.stop()
	un.account(c, first, err1)
	if err1 == nil {
		switch js, jerr := json.Marshal(resumed); {
		case err2 != nil || jerr != nil:
			un.failed = un.attempted
			un.problems = append(un.problems, fmt.Sprintf("resume: %v %v", err2, jerr))
		case !bytes.Equal(js, un.results[0]):
			un.failed = un.attempted
			un.problems = append(un.problems, "resumed result differs from the journaled run")
		}
	}
	un.digest = digestOf(un.results...)
	return un, nil
}

// ---- repro-quick ------------------------------------------------------

// reproConfig is cmd/reproduce -quick -workers N -seed S.
func reproConfig(o *options) core.Config {
	return core.Config{Seed: o.seed, Trials: 2000, Faults: 2000, Quick: true, Workers: o.workers, SampleWorkers: 1}
}

// Fixture seeds and sizes of internal/core (its unexported constants):
// the prologue builds the same kernels core builds lazily.
const (
	coreSeedGEMM  = 1001
	coreSeedLava  = 1002
	coreSeedLUD   = 1003
	coreSeedMicro = 1004
	coreSeedMNIST = 1005
	coreSeedYOLO  = 1006
)

// reproKernels constructs core's fixture kernels with the same public
// constructors and seeds; tr, when set, times each construction.
func reproKernels(tr *tracer, parent, run int) map[string]kernels.Kernel {
	ks := map[string]kernels.Kernel{}
	build := func(name string, mk func() kernels.Kernel) {
		if tr == nil {
			ks[name] = mk()
			return
		}
		id := tr.begin("kernels.build."+name, parent, run)
		ks[name] = mk()
		tr.end(id)
	}
	build("MxM", func() kernels.Kernel { return kernels.NewGEMM(16, coreSeedGEMM) })
	build("LUD", func() kernels.Kernel { return kernels.NewLUD(16, coreSeedLUD) })
	build("LavaMD", func() kernels.Kernel { return kernels.NewLavaMD(2, 4, coreSeedLava) })
	for _, op := range []kernels.MicroOp{kernels.MicroADD, kernels.MicroMUL, kernels.MicroFMA} {
		build(op.String(), func() kernels.Kernel { return kernels.NewMicro(op, 4, 50, coreSeedMicro) })
	}
	build("MNIST", func() kernels.Kernel { return kernels.NewMNIST(1, coreSeedMNIST) })
	build("YOLOv3", func() kernels.Kernel { return kernels.NewYOLO(coreSeedYOLO) })
	return ks
}

var devices = []struct {
	name string
	dev  arch.Device
}{
	{"fpga", fpga.New()},
	{"xeonphi", xeonphi.New()},
	{"gpu", gpu.New()},
}

// reproMaps are the (device, kernel) workloads core maps, with core's
// paper-scale targets: a fixed op scale when ops is 0, else the op
// scale that brings the kernel to ops dynamic operations.
var reproMaps = []struct {
	device, kernel string
	opScale, ops   float64
	dataScale      float64
}{
	{"fpga", "MNIST", 1, 0, 1},
	{"fpga", "MxM", 512, 0, 64},
	{"xeonphi", "LavaMD", 0, 8.631e10, 1},
	{"xeonphi", "MxM", 0, 8.755e9, 1},
	{"xeonphi", "LUD", 0, 1.585e11, 1},
	{"gpu", "Micro-ADD", 0, 1e9 * 20480, 1},
	{"gpu", "Micro-MUL", 0, 1e9 * 20480, 1},
	{"gpu", "Micro-FMA", 0, 1e9 * 20480, 1},
	{"gpu", "LavaMD", 0, 7.109e10, 4e4},
	{"gpu", "MxM", 0, 1.600e11, 1.6e4},
	{"gpu", "YOLOv3", 0, 3.217e10, 500},
}

// reproSetup is one cold prologue: core's fixture kernels, their
// artifacts in every precision and their mapping onto each device that
// core maps them on, in every precision the device supports.
func reproSetup(tr *tracer, parent, run int) (time.Duration, error) {
	span := func(name string, fn func()) {
		if tr == nil {
			fn()
			return
		}
		id := tr.begin(name, parent, run)
		fn()
		tr.end(id)
	}
	t0 := time.Now()
	exec.ResetCache()
	ks := reproKernels(tr, parent, run)
	for _, name := range sortedKeys(ks) {
		for _, f := range fp.Formats {
			span("exec.artifact", func() { exec.Artifact(ks[name], f, "", nil) })
		}
	}
	for _, rm := range reproMaps {
		k := ks[rm.kernel]
		if k == nil {
			return 0, fmt.Errorf("no fixture kernel %s", rm.kernel)
		}
		scale := rm.opScale
		if rm.ops > 0 {
			scale = rm.ops / float64(exec.Artifact(k, fp.Double, "", nil).Counts.Total())
		}
		for _, d := range devices {
			if d.name != rm.device {
				continue
			}
			for _, f := range fp.Formats {
				if !d.dev.Supports(f) {
					continue
				}
				var err error
				span("arch.map."+d.name, func() {
					var m *arch.Mapping
					if m, err = d.dev.Map(arch.NewWorkload(k, scale, rm.dataScale), f); err == nil {
						err = m.Validate()
					}
				})
				if err != nil {
					return 0, fmt.Errorf("map %s on %s: %w", rm.kernel, d.name, err)
				}
			}
		}
	}
	return time.Since(t0), nil
}

// reproSetups is how many cold prologues a repro-quick run times; the
// reported set-up is their median.
const reproSetups = 3

// reproPasses is how many times a repro-quick run reproduces every
// experiment; each experiment's time is its median pass.
const reproPasses = 3

// reproPass is one run of every experiment.
type reproPass struct {
	times []time.Duration // per experiment, in paper order
	// slow is, per experiment, the host's slowdown over it (calib.go);
	// measured only for a pass run with calib.
	slow    []float64
	out     []byte
	wall    time.Duration
	samples uint64
	alloc   uint64
	err     error
}

// runReproPass reproduces every experiment the way cmd/reproduce -quick
// does: in paper order, each with its grid on the shared scheduler,
// each table rendered as it completes. It starts from a dropped
// artifact memo; core keeps its trained MNIST and YOLO fixtures for the
// life of the process, so only a process's first pass builds them.
// With calib, the reference runs before and after every experiment.
func runReproPass(o *options, tr *tracer, run int, calib bool) *reproPass {
	exec.ResetCache()
	cfg := reproConfig(o)
	p := &reproPass{}
	var buf bytes.Buffer
	root := -1
	if tr != nil {
		root = tr.begin("repro", -1, run)
	}
	span := func(name string, fn func()) {
		if tr == nil {
			fn()
			return
		}
		id := tr.begin(name, root, run)
		fn()
		tr.end(id)
	}
	var slow float64
	if calib {
		slow = hostSlowdown(o.workers)
	}
	ph := startPhase()
	for _, d := range core.Experiments {
		t0 := time.Now()
		var t *report.Table
		var err error
		span("core."+d.ID, func() { t, err = d.Run(cfg) })
		if err == nil {
			span("report.render", func() { err = t.WriteASCII(&buf) })
		}
		p.times = append(p.times, time.Since(t0))
		if calib {
			after := hostSlowdown(o.workers)
			p.slow = append(p.slow, (slow+after)/2)
			slow = after
		}
		if err != nil {
			p.err = fmt.Errorf("%s: %w", d.ID, err)
			break
		}
	}
	p.wall, p.alloc, p.samples = ph.stop()
	if tr != nil {
		tr.end(root)
	}
	p.out = buf.Bytes()
	return p
}

// reproUnit times the set-up prologue, then reproduces every
// experiment reproPasses times (more if --seconds have not elapsed).
// It runs untraced; the traced pass drives runReproPass itself.
// wall_s is the sum over experiments of each one's median pass, which
// drops the first pass's fixture training (set-up measures it) and a
// host stall that hits one pass. Each set-up and each experiment is
// scaled by the host's slowdown over it (calib.go).
func reproUnit(o *options, u int, tr *tracer) (*unit, error) {
	un := &unit{}
	slow := hostSlowdown(o.workers)
	for i := 0; i < reproSetups; i++ {
		d, err := reproSetup(nil, -1, 0)
		if err != nil {
			return nil, err
		}
		after := hostSlowdown(o.workers)
		un.setups = append(un.setups, scaled(d, slow, after))
		slow = after
	}
	var passes []*reproPass
	start := time.Now()
	for len(passes) < reproPasses || time.Since(start).Seconds() < o.seconds {
		passes = append(passes, runReproPass(o, nil, 0, true))
	}
	var allocs []float64
	for i, p := range passes {
		un.attempted += int(p.samples)
		if i < reproPasses {
			allocs = append(allocs, float64(p.alloc))
		}
		if p.err != nil {
			un.problems = append(un.problems, fmt.Sprintf("pass %d: %v", i, p.err))
		} else if i > 0 && !bytes.Equal(p.out, passes[0].out) {
			un.problems = append(un.problems, fmt.Sprintf("pass %d renders different tables than pass 0", i))
		}
	}
	var slows []float64
	for e := range core.Experiments {
		var ts, raw []float64
		for _, p := range passes {
			if e < len(p.times) {
				ts = append(ts, float64(p.times[e])/p.slow[e])
				raw = append(raw, float64(p.times[e]))
				slows = append(slows, p.slow[e])
			}
		}
		un.wall += time.Duration(median(ts))
		un.rawWall += time.Duration(median(raw))
	}
	un.slowdown = median(slows)
	un.sampleWall = un.rawWall
	un.samples = passes[0].samples
	un.spent = int(passes[0].samples)
	un.alloc = uint64(median(allocs))
	un.digest = digestOf(passes[0].out)
	cli, err := reproduceCLI(o)
	if err != nil {
		return nil, err
	}
	un.problems = append(un.problems, checkRepro(passes[0].out, cli)...)
	if un.attempted == 0 {
		un.attempted = 1
	}
	if len(un.problems) > 0 {
		un.failed = un.attempted
	}
	var first time.Duration
	for _, t := range passes[0].times {
		first += t
	}
	fmt.Printf("repro-quick passes %d, cold first pass %.3f s\n", len(passes), first.Seconds())
	return un, nil
}

// reproduceCLI runs cmd/reproduce -quick at the run's seed and worker
// count and returns what it prints.
func reproduceCLI(o *options) ([]byte, error) {
	if o.reproduce == "" {
		return nil, errors.New("repro-quick needs -reproduce, the cmd/reproduce binary")
	}
	cmd := osexec.Command(o.reproduce, "-quick", "-workers", strconv.Itoa(o.workers),
		"-seed", strconv.FormatUint(o.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("cmd/reproduce: %w", err)
	}
	return out, nil
}

// checkRepro checks rendered tables against cli, cmd/reproduce's output
// at the same seed, and checks that the check rejects the tables with
// one digit changed.
func checkRepro(out, cli []byte) []string {
	probs := checkTables(out)
	if !bytes.Equal(out, cli) {
		probs = append(probs, fmt.Sprintf("tables (%d bytes, sha256 %s) differ from cmd/reproduce's (%d bytes, sha256 %s)",
			len(out), digestOf(out), len(cli), digestOf(cli)))
	}
	if bytes.Equal(perturbTables(out), cli) {
		probs = append(probs, "the check accepts the tables with one digit changed")
	}
	return probs
}

// perturbTables returns a copy of out with its last digit changed.
func perturbTables(out []byte) []byte {
	p := bytes.Clone(out)
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] >= '0' && p[i] <= '9' {
			p[i] = '0' + (p[i]-'0'+1)%10
			break
		}
	}
	return p
}

// checkTables checks the rendered reproduction: every experiment's
// table, in paper order, each with at least one row.
func checkTables(out []byte) []string {
	var probs []string
	rest := string(out)
	for _, d := range core.Experiments {
		head := fmt.Sprintf(" [%s] ==\n", d.ID)
		i := strings.Index(rest, head)
		if i < 0 {
			probs = append(probs, fmt.Sprintf("table %s missing or out of order", d.ID))
			continue
		}
		rest = rest[i+len(head):]
		if strings.Count(strings.SplitN(rest, "\n== ", 2)[0], "\n") < 3 {
			probs = append(probs, fmt.Sprintf("table %s has no rows", d.ID))
		}
	}
	return probs
}
