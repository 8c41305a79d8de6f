package beam

import (
	"fmt"
	"math"

	"mixedrel/internal/arch"
	"mixedrel/internal/exec"
	"mixedrel/internal/inject"
	"mixedrel/internal/rng"
)

// Accumulation simulates what the paper deliberately avoids (Section 4):
// leaving an FPGA in the beam *without* reprogramming after errors.
// Configuration-memory upsets then pile up, each one permanently
// corrupting another hardware operator instance, until the circuit stops
// producing anything useful — the regime in which the paper notes DUEs
// would eventually appear on FPGAs ("after several radiation-induced
// modifications the circuit stops working", citing Quinn et al.).
//
// The simulation repeatedly adds a random persistent operator fault to a
// growing set, re-runs the workload with all accumulated faults active,
// and classifies the output. Rounds are averaged to estimate, for every
// accumulation depth k, the probability that the output is corrupted and
// the probability that the circuit is functionally dead (a large share
// of the outputs are non-finite or wildly out of range).
type Accumulation struct {
	Mapping *arch.Mapping
	// MaxFaults is the deepest accumulation level simulated.
	MaxFaults int
	// Rounds is the number of independent accumulation sequences
	// averaged per level.
	Rounds int
	Seed   uint64
}

// AccumulationPoint is the outcome distribution at one accumulation
// depth.
type AccumulationPoint struct {
	Faults int
	// PSDC is the probability that the output differs from golden.
	PSDC float64
	// PDead is the probability the circuit is functionally dead: at
	// least half of the outputs non-finite or more than 10^6 times off.
	PDead float64
}

// AccumulationResult is the per-depth outcome curve.
type AccumulationResult struct {
	Points []AccumulationPoint
}

// Run executes the accumulation simulation. Results are deterministic
// in Seed, at any pool size.
func (a Accumulation) Run() (*AccumulationResult, error) {
	m := a.Mapping
	if m == nil {
		return nil, fmt.Errorf("beam: accumulation has no mapping")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if a.MaxFaults <= 0 || a.Rounds <= 0 {
		return nil, fmt.Errorf("beam: accumulation needs positive MaxFaults and Rounds")
	}
	cfg := m.ExposureFor(arch.ConfigMemory)
	if cfg.Bits <= 0 {
		return nil, fmt.Errorf("beam: %s has no configuration memory to accumulate faults in", m.DeviceName)
	}
	mod := m.UnrollFactor
	if mod == 0 {
		mod = 1
	}

	// Each round is one sample of a sequential-stream session batch (no
	// checkpoint, so no journal record codec): draw takes the round's
	// upsets from the stream in the order they accumulate, and run
	// executes every depth k = 1…MaxFaults on the pool, each one run with
	// the first k upsets as its fault schedule.
	runner := inject.NewRunner(m.Kernel, m.Format, m.WrapKey, m.Wrap)
	golden := runner.Golden()
	sess, err := exec.NewSession[[]inject.OpFault, []depthOutcome](nil, 1, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	rounds, _, err := sess.Run(exec.Flat(a.Seed, a.Rounds), func(_ int, r *rng.Rand) []inject.OpFault {
		faults := make([]inject.OpFault, a.MaxFaults)
		for k := range faults {
			faults[k] = inject.OpFault{
				Kind:   sampleOpKind(r, cfg.OpWeights, m.Counts),
				Index:  r.Uint64n(mod),
				Modulo: mod,
				Bit:    r.Intn(m.Format.Width()),
				Target: inject.TargetResult,
			}
		}
		return faults
	}, func(_ int, faults []inject.OpFault) []depthOutcome {
		out := make([]depthOutcome, len(faults))
		for k := range faults {
			rr, abort := runner.RunSpec(inject.FaultSpec{Ops: faults[:k+1]}, true)
			if abort != nil {
				out[k].panicMsg = abort.String()
				break
			}
			out[k].sdc = rr.Outcome == inject.SDC
			out[k].dead = out[k].sdc && isDead(golden, rr.Output)
		}
		return out
	})
	if err != nil {
		return nil, err
	}

	res := &AccumulationResult{}
	for k := 0; k < a.MaxFaults; k++ {
		var sdc, dead int
		for i, round := range rounds {
			if msg := round[k].panicMsg; msg != "" {
				return nil, fmt.Errorf("beam: accumulation round %d, depth %d aborted: %s", i, k+1, msg)
			}
			if round[k].sdc {
				sdc++
			}
			if round[k].dead {
				dead++
			}
		}
		res.Points = append(res.Points, AccumulationPoint{
			Faults: k + 1,
			PSDC:   float64(sdc) / float64(a.Rounds),
			PDead:  float64(dead) / float64(a.Rounds),
		})
	}
	return res, nil
}

// depthOutcome is one accumulation depth's classification in one round.
type depthOutcome struct {
	sdc, dead bool
	panicMsg  string // set when the simulator aborted the run
}

// isDead reports whether the output indicates a functionally broken
// circuit: at least half the elements non-finite or off by a factor of
// a million.
func isDead(golden, out []float64) bool {
	if len(out) == 0 {
		return false
	}
	bad := 0
	for i, v := range out {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			bad++
		case golden[i] != 0 && math.Abs(v/golden[i]) > 1e6:
			bad++
		case golden[i] != 0 && math.Abs(v/golden[i]) < 1e-6:
			bad++
		}
	}
	return 2*bad >= len(out)
}
