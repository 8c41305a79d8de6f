package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"mixedrel/internal/exec"
	"mixedrel/internal/inject"
	"mixedrel/internal/rng"
	"mixedrel/internal/stats"
)

// The traced variants below re-drive a campaign's own sample keys
// through the injector's exported functions (NewRunner, Sample*Fault or
// Space.Sample, Runner.RunSpec, Journal.Record), with a span around
// each call. They follow the campaign engine's seeding and assembly
// exactly, so a traced unit must encode byte-for-byte the result of the
// untraced one; the benchmark checks that it does.

// runID allocates a fresh span run id.
func runID(tr *tracer) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.runs++
	return tr.runs
}

// outcome is one classified sample, as the campaign engine keeps it.
type outcome struct {
	rr       inject.RunResult
	aborted  bool
	fault    string
	panicMsg string
}

// journalRecord is the campaign engine's journal encoding of one sample
// (its field tags are the journal format). A resumed campaign decodes
// these records, so a drift in the format fails the resume check.
type journalRecord struct {
	Outcome    inject.Outcome  `json:"o"`
	Cause      inject.DUECause `json:"c,omitempty"`
	RelErrBits uint64          `json:"r,omitempty"`
	Applied    bool            `json:"fa,omitempty"`
	OutputBits []uint64        `json:"out,omitempty"`
	Aborted    bool            `json:"ab,omitempty"`
	Fault      string          `json:"f,omitempty"`
	Panic      string          `json:"p,omitempty"`
}

func (s outcome) record() journalRecord {
	rec := journalRecord{Outcome: s.rr.Outcome, Cause: s.rr.Cause,
		RelErrBits: math.Float64bits(s.rr.MaxRelErr), Applied: s.rr.FaultApplied,
		Aborted: s.aborted, Fault: s.fault, Panic: s.panicMsg}
	for _, v := range s.rr.Output {
		rec.OutputBits = append(rec.OutputBits, math.Float64bits(v))
	}
	return rec
}

// tally adds one sample to a result, in the engine's order of fields.
func tally(res *inject.Result, s outcome, keep bool, abortIndex int, abortSeed uint64) {
	switch {
	case s.aborted:
		res.Aborted = append(res.Aborted, inject.AbortedSample{
			Index: abortIndex, Seed: abortSeed, Fault: s.fault, Panic: s.panicMsg})
	case s.rr.Outcome == inject.SDC:
		res.SDCs++
		res.RelErrs = append(res.RelErrs, s.rr.MaxRelErr)
		if keep {
			res.Outputs = append(res.Outputs, s.rr.Output)
		}
	case s.rr.Outcome == inject.CrashDUE:
		res.CrashDUEs++
	case s.rr.Outcome == inject.HangDUE:
		res.HangDUEs++
	default:
		res.Masked++
	}
}

func rates(res *inject.Result) {
	if n := res.Classified(); n > 0 {
		res.PVF = float64(res.SDCs) / float64(n)
		res.PDUE = float64(res.DUEs()) / float64(n)
	}
}

func sitesOf(c inject.Campaign) []inject.Site {
	if len(c.Sites) == 0 {
		return []inject.Site{inject.SiteOperand, inject.SiteMemory}
	}
	return c.Sites
}

func hasSite(sites []inject.Site, s inject.Site) bool {
	for _, x := range sites {
		if x == s {
			return true
		}
	}
	return false
}

// watchdogFor is the campaign's effective hang-detection factor.
func watchdogFor(c inject.Campaign, sites []inject.Site) float64 {
	if c.Watchdog <= 0 && hasSite(sites, inject.SiteControl) {
		return inject.DefaultWatchdogFactor
	}
	return c.Watchdog
}

// runSample executes one fault specification under a span.
func runSample(runner *inject.Runner, spec inject.FaultSpec, keep bool, tr *tracer, parent, run int) outcome {
	id := tr.begin("inject.run_spec", parent, run)
	rr, abort := runner.RunSpec(spec, keep)
	tr.end(id)
	if abort != nil {
		return outcome{aborted: true, fault: spec.Desc(), panicMsg: abort.String()}
	}
	return outcome{rr: rr}
}

// tracedCampaign runs a campaign without a checkpoint, traced.
func tracedCampaign(c inject.Campaign, tr *tracer, run int) (*inject.Result, error) {
	root := tr.begin("campaign", -1, run)
	defer tr.end(root)
	id := tr.begin("inject.new_runner", root, run)
	runner := inject.NewRunner(c.Kernel, c.Format, c.WrapKey, c.Wrap)
	tr.end(id)
	if c.Sampling != nil {
		return tracedStratified(c, runner, tr, root, run)
	}
	return tracedUniform(c, runner, tr, root, run, nil)
}

// tracedUniform is a uniform campaign's sample loop: per-sample streams
// (parallel or checkpointed mode) or the one sequential stream
// (Workers <= 1 without a checkpoint), each sample's site drawn first.
func tracedUniform(c inject.Campaign, runner *inject.Runner, tr *tracer, parent, run int, j *exec.Journal) (*inject.Result, error) {
	sites := sitesOf(c)
	counts, lens := runner.Counts(), runner.ArrayLens()
	watchdog := watchdogFor(c, sites)
	draw := func(r *rng.Rand) inject.FaultSpec {
		var spec inject.FaultSpec
		switch sites[r.Intn(len(sites))] {
		case inject.SiteOperation:
			f := inject.SampleOpFault(r, counts, c.Format, 0, true, inject.TargetResult)
			spec.Op = &f
		case inject.SiteOperand:
			f := inject.SampleOpFault(r, counts, c.Format, 0, true, inject.TargetOperand)
			spec.Op = &f
		case inject.SiteMemory:
			spec.Mem = []inject.MemFault{inject.SampleMemFault(r, lens, c.Format)}
		case inject.SiteControl:
			cf := inject.SampleControlFault(r, counts)
			spec.Control = &cf
		}
		spec.Watchdog = watchdog
		spec.TrapNonFinite = c.TrapNonFinite
		return spec
	}
	perSample := c.Workers > 1 || c.Checkpoint != nil
	outs := make([]outcome, c.Faults)
	var seeds []uint64
	one := func(i int, r *rng.Rand) error {
		s := tr.begin("sample", parent, run)
		d := tr.begin("inject.fault_draw", s, run)
		spec := draw(r)
		tr.end(d)
		outs[i] = runSample(runner, spec, c.KeepOutputs, tr, s, run)
		var err error
		if j != nil {
			id := tr.begin("exec.journal_record", s, run)
			err = j.Record(i, outs[i].record())
			tr.end(id)
		}
		tr.end(s)
		return err
	}
	if perSample {
		master := rng.New(c.Seed)
		seeds = make([]uint64, c.Faults)
		for i := range seeds {
			seeds[i] = master.Uint64()
		}
		if err := exec.ForEach(c.Workers, c.Faults, func(i int) error { return one(i, rng.New(seeds[i])) }); err != nil {
			return nil, err
		}
	} else {
		r := rng.New(c.Seed)
		for i := 0; i < c.Faults; i++ {
			if err := one(i, r); err != nil {
				return nil, err
			}
		}
	}
	res := &inject.Result{Faults: c.Faults}
	for i, s := range outs {
		var seed uint64
		if perSample {
			seed = seeds[i]
		}
		tally(res, s, c.KeepOutputs, i, seed)
	}
	rates(res)
	return res, nil
}

// tracedStratified is the sampling engine's round loop: proportional
// first round, Neyman deficit allocation after it, and the stratified
// CI stopping rule. The planner — allocation and stopping, which the
// engine runs inside Campaign.Run — is timed here as stats.plan spans
// around the same exported stats functions on the same tallies.
func tracedStratified(c inject.Campaign, runner *inject.Runner, tr *tracer, parent, run int) (*inject.Result, error) {
	sp := *c.Sampling
	sites := sitesOf(c)
	watchdog := watchdogFor(c, sites)
	id := tr.begin("inject.space_build", parent, run)
	space, err := inject.BuildSpace(sites, runner.Counts(), runner.ArrayLens(), c.Format, sp.Phases, sp.Bands)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	weights := space.Weights()
	n := len(space.Strata)
	src := make([]*rng.Rand, n)
	seeds := make([][]uint64, n)
	outs := make([][]outcome, n)
	for h := range src {
		src[h] = rng.New(exec.StratumSeed(c.Seed, h))
	}
	dueArmed := watchdog > 0 || c.TrapNonFinite || hasSite(sites, inject.SiteControl)
	tallies := func(due bool) []stats.StratumCount {
		out := make([]stats.StratumCount, n)
		for h := range outs {
			sc := stats.StratumCount{Weight: weights[h]}
			for _, s := range outs[h] {
				if s.aborted {
					continue
				}
				sc.N++
				if (due && s.rr.Outcome.IsDUE()) || (!due && s.rr.Outcome == inject.SDC) {
					sc.K++
				}
			}
			out[h] = sc
		}
		return out
	}
	converged := func() bool {
		if sp.CIHalfWidth <= 0 || stats.StratifiedHalfWidth(tallies(false), sp.Confidence) > sp.CIHalfWidth {
			return false
		}
		return !dueArmed || stats.StratifiedHalfWidth(tallies(true), sp.Confidence) <= sp.CIHalfWidth
	}
	unitScores := make([]float64, n)
	for h := range unitScores {
		unitScores[h] = 1
	}
	spent, stopped := 0, false
	for spent < c.Faults && !stopped {
		pl := tr.begin("stats.plan", parent, run)
		budget := sp.Round
		if spent == 0 && sp.MinPerStratum*n > budget {
			budget = sp.MinPerStratum * n
		}
		if rest := c.Faults - spent; budget > rest {
			budget = rest
		}
		taken := make([]int64, n)
		for h := range outs {
			taken[h] = int64(len(outs[h]))
		}
		var alloc []int
		switch {
		case spent == 0:
			alloc = stats.ProportionalAlloc(weights, budget, sp.MinPerStratum)
		case sp.Adaptive:
			sdc, due := tallies(false), tallies(true)
			scores := make([]float64, n)
			for h := range scores {
				if sp.CIHalfWidth > 0 &&
					stats.WilsonHalfWidth(sdc[h].K, sdc[h].N, sp.Confidence) <= sp.CIHalfWidth &&
					(!dueArmed || stats.WilsonHalfWidth(due[h].K, due[h].N, sp.Confidence) <= sp.CIHalfWidth) {
					continue
				}
				scores[h] = sdc[h].SmoothedSigma()
				if dueArmed {
					if d := due[h].SmoothedSigma(); d > scores[h] {
						scores[h] = d
					}
				}
			}
			alloc = stats.DeficitAlloc(weights, scores, taken, budget)
		default:
			alloc = stats.DeficitAlloc(weights, unitScores, taken, budget)
		}
		tr.end(pl)
		type job struct {
			h    int
			seed uint64
		}
		var plan []job
		for h, k := range alloc {
			for idx := len(outs[h]); idx < len(outs[h])+k; idx++ {
				for len(seeds[h]) <= idx {
					seeds[h] = append(seeds[h], src[h].Uint64())
				}
				plan = append(plan, job{h: h, seed: seeds[h][idx]})
			}
		}
		if len(plan) == 0 {
			break
		}
		results := make([]outcome, len(plan))
		err := exec.ForEach(c.Workers, len(plan), func(i int) error {
			s := tr.begin("sample", parent, run)
			d := tr.begin("inject.fault_draw", s, run)
			spec := space.Sample(plan[i].h, rng.New(plan[i].seed))
			spec.Watchdog = watchdog
			spec.TrapNonFinite = c.TrapNonFinite
			tr.end(d)
			results[i] = runSample(runner, spec, c.KeepOutputs, tr, s, run)
			tr.end(s)
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, jb := range plan {
			outs[jb.h] = append(outs[jb.h], results[i])
		}
		spent += len(plan)
		cv := tr.begin("stats.plan", parent, run)
		stopped = converged()
		tr.end(cv)
	}

	res := &inject.Result{Faults: spent, EarlyStopped: stopped}
	sdc := make([]stats.StratumCount, n)
	due := make([]stats.StratumCount, n)
	for h := range outs {
		sr := inject.StratumResult{Desc: space.Strata[h].Desc(), Weight: space.Strata[h].Weight, Faults: len(outs[h])}
		for idx, s := range outs[h] {
			tally(res, s, c.KeepOutputs, exec.SampleKey(h, idx), seeds[h][idx])
			switch {
			case s.aborted:
			case s.rr.Outcome == inject.SDC:
				sr.SDCs++
			case s.rr.Outcome.IsDUE():
				sr.DUEs++
			default:
				sr.Masked++
			}
		}
		res.Strata = append(res.Strata, sr)
		k := int64(sr.SDCs + sr.DUEs + sr.Masked)
		sdc[h] = stats.StratumCount{Weight: sr.Weight, N: k, K: int64(sr.SDCs)}
		due[h] = stats.StratumCount{Weight: sr.Weight, N: k, K: int64(sr.DUEs)}
	}
	rates(res)
	res.StratifiedPVF = stats.PostStratified(sdc)
	res.PVFCILow, res.PVFCIHigh = stats.StratifiedCI(sdc, sp.Confidence)
	res.StratifiedPDUE = stats.PostStratified(due)
	res.PDUECILow, res.PDUECIHigh = stats.StratifiedCI(due, sp.Confidence)
	return res, nil
}

// tracedJournal journals a checkpointed campaign sample by sample
// through Journal.Record, then resumes it (Campaign.Run against the
// complete journal) and times a bare reload of the journal. The
// journal's file handles are wrapped to time each fsync.
func tracedJournal(c inject.Campaign, tr *tracer, run int) (first, resumed *inject.Result, err1, err2 error) {
	root := tr.begin("campaign", -1, run)
	id := tr.begin("inject.new_runner", root, run)
	runner := inject.NewRunner(c.Kernel, c.Format, c.WrapKey, c.Wrap)
	tr.end(id)
	ck := *c.Checkpoint
	ck.FS = timedFS{tr: tr, run: run}
	id = tr.begin("exec.journal_open", root, run)
	j, err := ck.Open()
	tr.end(id)
	if err != nil {
		tr.end(root)
		return nil, nil, err, nil
	}
	if _, err1 = tracedUniform(c, runner, tr, root, run, j); err1 != nil {
		tr.end(root)
		return nil, nil, err1, nil
	}
	id = tr.begin("exec.journal_close", root, run)
	err1 = j.Close()
	tr.end(id)
	if err1 == nil {
		first, err1 = decodeJournal(c, j, tr, root, run)
	}
	tr.end(root)
	if err1 != nil {
		return nil, nil, err1, nil
	}
	if fi, err := os.Stat(c.Checkpoint.Path); err == nil && j.Len() > 0 {
		tr.note("exec.journal_bytes_per_record", float64(fi.Size())/float64(j.Len()))
	}

	id = tr.begin("exec.resume", -1, run)
	resumed, err2 = c.Run()
	tr.end(id)
	if err2 != nil {
		return first, nil, nil, err2
	}
	id = tr.begin("exec.journal_load", -1, run)
	j2, err := c.Checkpoint.Open()
	tr.end(id)
	if err != nil {
		return first, resumed, nil, err
	}
	return first, resumed, nil, j2.Close()
}

// decodeJournal assembles a checkpointed campaign's result the way the
// engine does: every sample decoded back from the closed journal.
func decodeJournal(c inject.Campaign, j *exec.Journal, tr *tracer, parent, run int) (*inject.Result, error) {
	master := rng.New(c.Seed)
	res := &inject.Result{Faults: c.Faults}
	if deg, derr := j.Degraded(); deg {
		res.CheckpointDegraded = true
		res.CheckpointError = fmt.Sprint(derr)
	}
	for i := 0; i < c.Faults; i++ {
		seed := master.Uint64()
		id := tr.begin("exec.journal_decode", parent, run)
		raw, ok := j.Done(i)
		var rec journalRecord
		var err error
		if !ok {
			err = exec.ErrPartial
		} else if err = json.Unmarshal(raw, &rec); err != nil {
			err = fmt.Errorf("journal record %d: %w", i, err)
		}
		tr.end(id)
		if err != nil {
			return nil, err
		}
		s := outcome{rr: inject.RunResult{Outcome: rec.Outcome, Cause: rec.Cause,
			MaxRelErr: math.Float64frombits(rec.RelErrBits), FaultApplied: rec.Applied},
			aborted: rec.Aborted, fault: rec.Fault, panicMsg: rec.Panic}
		if rec.OutputBits != nil {
			s.rr.Output = make([]float64, len(rec.OutputBits))
			for k, b := range rec.OutputBits {
				s.rr.Output[k] = math.Float64frombits(b)
			}
		}
		tally(res, s, c.KeepOutputs, i, seed)
	}
	rates(res)
	return res, nil
}

// timedFS is the operating system's filesystem with each fsync of a
// journal file recorded as an exec.fsync span.
type timedFS struct {
	tr  *tracer
	run int
}

type timedFile struct {
	*os.File
	fs timedFS
}

func (t timedFile) Sync() error {
	id := t.fs.tr.begin("exec.fsync", -1, t.fs.run)
	err := t.File.Sync()
	t.fs.tr.end(id)
	return err
}

func (timedFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (timedFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (timedFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (timedFS) Remove(path string) error                     { return os.Remove(path) }

func (t timedFS) OpenAppend(path string) (exec.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, fs: t}, nil
}

func (t timedFS) Create(path string) (exec.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, fs: t}, nil
}
