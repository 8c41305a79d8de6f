package beam

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mixedrel/internal/arch"
	"mixedrel/internal/exec"
	"mixedrel/internal/fp"
	"mixedrel/internal/gpu"
	"mixedrel/internal/inject"
	"mixedrel/internal/kernels"
	"mixedrel/internal/rng"
)

// tripwire wraps a kernel for the driver contract: a run on corrupted
// inputs panics (memory faults become aborted samples), and an armed
// trigger cancels the campaign's context at its n-th run.
type tripwire struct {
	kernels.Kernel
	trig *trigger
}

type trigger struct {
	runs   atomic.Int64
	at     int64
	cancel atomic.Pointer[context.CancelFunc]
}

func (k tripwire) Key() string { return k.Kernel.Key() + "+tripwire" }

func (k tripwire) Run(env fp.Env, in [][]fp.Bits) []fp.Bits {
	if c := k.trig.cancel.Load(); c != nil && k.trig.runs.Add(1) == k.trig.at {
		(*c)()
	}
	pristine := k.Kernel.Inputs(env.Format())
	for a := range in {
		for i := range in[a] {
			if in[a][i] != pristine[a][i] {
				panic("tripwire: corrupted input")
			}
		}
	}
	return k.Kernel.Run(env, in)
}

// campaignKind is one way of running samples on the driver: run
// executes it under ctx with checkpoint ck (nil when the kind has none)
// and returns the encoded result and its aborted samples; replay
// re-draws an aborted sample's fault from rng.New(Seed).
type campaignKind struct {
	name         string
	checkpointed bool
	sequential   bool // samples share one stream: no replay seed
	run          func(ctx context.Context, ck *exec.Checkpoint) ([]byte, []inject.AbortedSample, error)
	replay       func(ab inject.AbortedSample) string
}

func injectKind(name string, c inject.Campaign, ckpt bool, replay func(inject.AbortedSample) string) campaignKind {
	return campaignKind{
		name: name, checkpointed: ckpt, sequential: c.Workers <= 1 && !ckpt && c.Sampling == nil,
		run: func(ctx context.Context, ck *exec.Checkpoint) ([]byte, []inject.AbortedSample, error) {
			c := c
			c.Context, c.Checkpoint = ctx, ck
			res, err := c.Run()
			if err != nil {
				return nil, nil, err
			}
			raw, err := json.Marshal(res)
			return raw, res.Aborted, err
		},
		replay: replay,
	}
}

// TestDriverContract runs every campaign kind through the driver's
// three guarantees: a cancelled run resumes (or, without a journal,
// re-runs) to a byte-identical result; so does a run cut short by
// Checkpoint.Limit; and every aborted sample's seed replays its fault.
func TestDriverContract(t *testing.T) {
	trig := &trigger{}
	k := tripwire{kernels.NewGEMM(5, 4), trig}
	f := fp.Single
	sites := []inject.Site{inject.SiteOperand, inject.SiteMemory}
	runner := inject.NewRunner(k, f, "", nil)
	uniformFault := func(ab inject.AbortedSample) string {
		r := rng.New(ab.Seed)
		var spec inject.FaultSpec
		switch sites[r.Intn(len(sites))] {
		case inject.SiteOperand:
			op := inject.SampleOpFault(r, runner.Counts(), f, 0, true, inject.TargetOperand)
			spec.Op = &op
		case inject.SiteMemory:
			spec.Mem = []inject.MemFault{inject.SampleMemFault(r, runner.ArrayLens(), f)}
		}
		return spec.Desc()
	}
	uniform := inject.Campaign{Kernel: k, Format: f, Faults: 60, Seed: 21, Sites: sites}
	parallel := uniform
	parallel.Workers = 3

	sampling := &inject.Sampling{Phases: 2, Bands: inject.DefaultBitBands(f), Round: 24, MinPerStratum: 1,
		Adaptive: true, CIHalfWidth: 0.01}
	stratified := uniform
	stratified.Faults, stratified.Workers, stratified.Sampling = 90, 2, sampling
	space, err := inject.BuildSpace(sites, runner.Counts(), runner.ArrayLens(), f, sampling.Phases, sampling.Bands)
	if err != nil {
		t.Fatal(err)
	}

	// A large resident data set puts most strikes in SRAM, where they
	// corrupt inputs and trip the wire.
	m, err := gpu.New().Map(arch.NewWorkload(k, 1e6, 1e6), f)
	if err != nil {
		t.Fatal(err)
	}
	exp := Experiment{Mapping: m, Trials: 80, Seed: 13, Workers: 2, BehavioralDUE: true}
	trials, err := exp.trials()
	if err != nil {
		t.Fatal(err)
	}

	kinds := []campaignKind{
		injectKind("uniform sequential", uniform, false, nil),
		injectKind("uniform parallel", parallel, false, uniformFault),
		injectKind("uniform checkpointed", uniform, true, uniformFault),
		injectKind("adaptive stratified checkpointed", stratified, true, func(ab inject.AbortedSample) string {
			return space.Sample(exec.KeyStratum(ab.Index), rng.New(ab.Seed)).Desc()
		}),
		{
			name: "beam behavioral checkpointed", checkpointed: true,
			run: func(ctx context.Context, ck *exec.Checkpoint) ([]byte, []inject.AbortedSample, error) {
				e := exp
				e.Context, e.Checkpoint = ctx, ck
				res, err := e.Run()
				if err != nil {
					return nil, nil, err
				}
				raw, err := json.Marshal(res)
				return raw, res.Aborted, err
			},
			replay: func(ab inject.AbortedSample) string { return trials.runTrial(rng.New(ab.Seed)).fault },
		},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			dir := t.TempDir()
			journal := func(name string, limit int) *exec.Checkpoint {
				if !kind.checkpointed {
					return nil
				}
				return &exec.Checkpoint{Path: filepath.Join(dir, name), Every: 3, Limit: limit}
			}
			want, aborted, err := kind.run(nil, journal("ref.jsonl", 0))
			if err != nil {
				t.Fatal(err)
			}

			// Cancelled at the fifth kernel run, then resumed.
			ctx, cancel := context.WithCancel(context.Background())
			trig.runs.Store(0)
			trig.at = 5
			trig.cancel.Store(&cancel)
			_, _, err = kind.run(ctx, journal("cancel.jsonl", 0))
			trig.cancel.Store(nil)
			cancel()
			var in *exec.Interrupted
			if !errors.As(err, &in) {
				t.Fatalf("cancelled run: err = %v, want *exec.Interrupted", err)
			}
			if kind.checkpointed != (in.Journaled >= 0) {
				t.Errorf("cancelled run reports Journaled %d", in.Journaled)
			}
			got, _, err := kind.run(nil, journal("cancel.jsonl", 0))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("result after cancellation differs:\n got %.300s\nwant %.300s", got, want)
			}

			// Cut short by Limit, then resumed until complete.
			if kind.checkpointed {
				got = nil
				for attempt := 0; got == nil; attempt++ {
					if attempt > 30 {
						t.Fatal("limited campaign never completed")
					}
					got, _, err = kind.run(nil, journal("limit.jsonl", 17))
					if err != nil && !errors.Is(err, exec.ErrPartial) {
						t.Fatal(err)
					}
					if attempt == 0 && err == nil {
						t.Fatal("Limit did not stop the first attempt")
					}
				}
				if string(got) != string(want) {
					t.Errorf("result after Limit resumes differs:\n got %.300s\nwant %.300s", got, want)
				}
			}

			// Every aborted sample's seed replays its fault.
			if len(aborted) == 0 {
				t.Fatal("no aborted samples: the replay check is vacuous")
			}
			for _, ab := range aborted {
				if kind.sequential {
					if ab.Seed != 0 {
						t.Errorf("sequential abort %d carries seed %#x", ab.Index, ab.Seed)
					}
					continue
				}
				if fault := kind.replay(ab); fault != ab.Fault {
					t.Errorf("abort %d: seed %#x replays %q, want %q", ab.Index, ab.Seed, fault, ab.Fault)
				}
			}
		})
	}
}
