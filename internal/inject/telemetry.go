package inject

import "mixedrel/internal/telemetry"

// Injector metrics, flushed once per classified sample from the
// environment's plain per-run stat fields — the hot per-operation path
// never touches an atomic. The telemetry analyzer proves none of these
// values flows back into classification, reports, or journals.
var (
	// mSamples counts classified faulty runs; the outcome counters
	// partition it (plus mAborts for runs that died on simulator bugs).
	mSamples  = telemetry.NewCounter("inject_samples")
	mMasked   = telemetry.NewCounter("inject_masked")
	mSDC      = telemetry.NewCounter("inject_sdc")
	mCrashDUE = telemetry.NewCounter("inject_crash_due")
	mHangDUE  = telemetry.NewCounter("inject_hang_due")
	mAborts   = telemetry.NewCounter("inject_aborts")

	// mOps counts dynamic operations executed under injecting
	// environments (a loop-counter jump's re-executed operations are
	// accounted to the watchdog but never executed, so they are not
	// counted);
	// mReplayServed/mCompareServed are the fraction answered from the
	// replay trace and the compiled program (the remainder recomputed
	// through the softfloat machine — the serve-vs-recompute ratio).
	mOps           = telemetry.NewCounter("inject_ops")
	mReplayServed  = telemetry.NewCounter("inject_replay_served")
	mCompareServed = telemetry.NewCounter("inject_compare_served")

	// mTilesSkipped counts output tiles an injected run took from the
	// golden output instead of executing (Env.Tile); their operations
	// are not in mOps.
	mTilesSkipped = telemetry.NewCounter("inject_tiles_skipped")

	// Behavioral-DUE detector fires, by cause.
	mWatchdogFires = telemetry.NewCounter("inject_watchdog_fires")
	mTrapFires     = telemetry.NewCounter("inject_trap_fires")
	mSegfaults     = telemetry.NewCounter("inject_segfaults")
)

// flushRunStats commits one finished run's accumulated environment
// statistics and its classification into the process-wide counters.
// aborted marks a run that died on a non-DUE panic (a simulator bug).
func flushRunStats(e *Env, outcome Outcome, cause DUECause, aborted bool) {
	mSamples.Inc()
	mOps.Add(e.all - e.statJumped)
	if e.statReplayed > 0 {
		mReplayServed.Add(e.statReplayed)
	}
	if e.statServed > 0 {
		mCompareServed.Add(e.statServed)
	}
	if e.statTiles > 0 {
		mTilesSkipped.Add(e.statTiles)
	}
	if aborted {
		mAborts.Inc()
		return
	}
	switch outcome {
	case Masked:
		mMasked.Inc()
	case SDC:
		mSDC.Inc()
	case CrashDUE:
		mCrashDUE.Inc()
	case HangDUE:
		mHangDUE.Inc()
	}
	switch cause {
	case CauseWatchdog:
		mWatchdogFires.Inc()
	case CauseTrap:
		mTrapFires.Inc()
	case CauseSegfault:
		mSegfaults.Inc()
	}
}
