package inject

import (
	"bytes"
	"encoding/json"
	"testing"

	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
)

func TestCampaignParallelDeterministic(t *testing.T) {
	base := Campaign{Kernel: kernels.NewGEMM(8, 3), Format: fp.Single,
		Faults: 300, Seed: 7, KeepOutputs: true}
	run := func(workers int) *Result {
		c := base
		c.Workers = workers
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(2), run(6)
	if a.SDCs != b.SDCs || a.PVF != b.PVF {
		t.Fatalf("worker counts disagree: %d vs %d SDCs", a.SDCs, b.SDCs)
	}
	for i := range a.RelErrs {
		if a.RelErrs[i] != b.RelErrs[i] {
			t.Fatalf("rel-err order differs at %d", i)
		}
	}
}

func TestCampaignParallelAgreesWithSequential(t *testing.T) {
	seq := Campaign{Kernel: kernels.NewGEMM(10, 3), Format: fp.Half, Faults: 800, Seed: 5}
	par := seq
	par.Workers = 4
	rs, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	rp, err := par.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := rs.PVF - rp.PVF; d > 0.08 || d < -0.08 {
		t.Errorf("PVF %v (seq) vs %v (par) differ beyond noise", rs.PVF, rp.PVF)
	}
}

// TestRunSpecSharesTraceAcrossSamples locks in the sharing contract of
// the replay fast paths: the golden result trace and the compiled
// program are installed into every sample's environment by slice/pointer
// aliasing — never copied — so steady-state runs allocate nothing
// proportional to the trace.
func TestRunSpecSharesTraceAcrossSamples(t *testing.T) {
	r := NewRunner(kernels.NewGEMM(8, 3), fp.Single, "", nil)
	fault := OpFault{AnyKind: true, Index: 100, Bit: 12, Target: TargetOperand}
	spec := FaultSpec{Op: &fault}

	// Warm the scratch pool, then inspect the worker state a run leaves
	// behind: both replay views must alias the memoized artifacts. The
	// race detector makes sync.Pool drop puts at random, so retry until
	// a used scratch (prog installed) comes back out of the pool.
	var sc *scratch
	for try := 0; ; try++ {
		if _, abort := r.RunSpec(spec, false); abort != nil {
			t.Fatal(abort)
		}
		sc = r.get()
		if sc.ienv.prog != nil || try >= 50 {
			break
		}
		r.scratch.Put(sc)
	}
	if sc.ienv.prog != r.art.Prog() {
		t.Error("compiled program was not installed by pointer sharing")
	}
	trace := r.art.Results()
	if len(sc.ienv.replay) == 0 || &sc.ienv.replay[0] != &trace[0] {
		t.Error("replay trace was copied instead of aliased")
	}
	r.scratch.Put(sc)

	// With the trace shared and the scratch pooled, a steady-state run
	// performs a small constant number of allocations (guard closures
	// and interface boxing), independent of trace length (5968 ops
	// here). Pool drops under the race detector make the count
	// meaningless there.
	if raceEnabled {
		return
	}
	// An eight-fault schedule (FPGA upsets accumulated without
	// scrubbing) reuses the pooled environment's schedule as well.
	eight := FaultSpec{Ops: make([]OpFault, 8)}
	for i := range eight.Ops {
		eight.Ops[i] = OpFault{Kind: fp.OpFMA, Index: uint64(i * 37), Modulo: uint64(64 + i), Bit: i, Target: Target(i % 2)}
	}
	for _, spec := range []FaultSpec{spec, eight} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, abort := r.RunSpec(spec, false); abort != nil {
				t.Fatal(abort)
			}
		})
		if allocs > 8 {
			t.Errorf("%s: RunSpec allocates %.0f objects per run; trace sharing broken?", spec.Desc(), allocs)
		}
	}
}

// TestCampaignSequentialPoolInvariant: a default (sequential-stream)
// campaign runs its samples on the shared pool, and its result is
// byte-identical at every pool size — including the DUE paths, whose
// control panics (watchdog, trap, segfault) now fire on helper
// goroutines.
func TestCampaignSequentialPoolInvariant(t *testing.T) {
	old := exec.MaxWorkers()
	defer exec.SetMaxWorkers(old)
	c := Campaign{Kernel: kernels.NewGEMM(8, 3), Format: fp.Half, Faults: 400, Seed: 11,
		Sites: []Site{SiteOperand, SiteMemory, SiteControl}, TrapNonFinite: true, KeepOutputs: true}
	var base []byte
	for _, pool := range []int{1, 2, 8} {
		exec.SetMaxWorkers(pool)
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.CrashDUEs == 0 || res.HangDUEs == 0 || res.SDCs == 0 {
			t.Fatalf("pool %d: %d crash, %d hang DUEs, %d SDCs: every outcome path must run",
				pool, res.CrashDUEs, res.HangDUEs, res.SDCs)
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
			t.Errorf("pool %d: result differs from pool 1:\n got %.300s\nwant %.300s", pool, raw, base)
		}
	}
}
