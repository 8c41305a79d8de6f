package exec

import "mixedrel/internal/telemetry"

// Execution-engine metrics. Counters are process-wide and always live
// (an atomic add per event); the fsync histogram only records when
// telemetry timing is enabled, because it needs wall-clock reads.
// Nothing here feeds back into scheduling or results — the telemetry
// analyzer proves these values never reach kernel Run paths, report
// rendering, or journal records.
var (
	// mJobs counts jobs completed by ForEach across all call sites
	// (each job is typically one injection sample).
	mJobs = telemetry.NewCounter("exec_jobs")
	// mHelpers tracks live helper goroutines; its peak is the realized
	// worker occupancy of the process-wide slot pool (up to
	// MaxWorkers while callers lend their idle slots).
	mHelpers = telemetry.NewGauge("exec_helpers")
	// mHelpersDenied counts ForEach calls refused a helper slot at the
	// start because the slot pool was exhausted — the queue-pressure
	// signal: work that wanted to parallelize but began inline on the
	// caller. It counts one refusal per call: the caller's later
	// between-job retries for a released slot (late joins) are not
	// counted, so the value stays comparable however long jobs run.
	mHelpersDenied = telemetry.NewCounter("exec_helpers_denied")

	// mArtifactLookups / mArtifactComputes measure the artifact memo:
	// hits per process = lookups - computes.
	mArtifactLookups  = telemetry.NewCounter("exec_artifact_lookups")
	mArtifactComputes = telemetry.NewCounter("exec_artifact_computes")
	// mArtifactUncached counts configurations that bypassed the memo
	// entirely (unidentifiable kernel or wrap key).
	mArtifactUncached = telemetry.NewCounter("exec_artifact_uncached")
	// mArtifactEvictions counts entries dropped by ResetCache.
	mArtifactEvictions = telemetry.NewCounter("exec_artifact_evictions")

	// mJournalRecords counts samples appended to checkpoint journals;
	// mJournalFsyncs counts flush-and-sync barriers, each timed into
	// mJournalFsyncNs when telemetry is enabled.
	mJournalRecords = telemetry.NewCounter("checkpoint_records")
	mJournalFsyncs  = telemetry.NewCounter("checkpoint_fsyncs")
	mJournalFsyncNs = telemetry.NewHistogram("checkpoint_fsync_ns")
	// Journal failure-policy counters: I/O errors observed on
	// flush/sync attempts, retries spent on them, journals that gave up
	// and degraded (checkpointing disabled, campaign continues), and
	// torn-line compactions (attempted rewrites and their failures).
	mJournalIOErrors      = telemetry.NewCounter("checkpoint_io_errors")
	mJournalRetries       = telemetry.NewCounter("checkpoint_retries")
	mJournalDegraded      = telemetry.NewCounter("checkpoint_degraded")
	mJournalCompactions   = telemetry.NewCounter("checkpoint_compactions")
	mJournalCompactErrors = telemetry.NewCounter("checkpoint_compact_errors")

	// mCancelledJobs counts jobs skipped by context cancellation — the
	// graceful-drain signal: work that was planned but never started
	// because the campaign's context fired first.
	mCancelledJobs = telemetry.NewCounter("exec_cancelled_jobs")

	// mGuardPanics counts panics recovered by Guard. This includes the
	// injector's intentional behavioral-DUE control panics (watchdog,
	// trap, segfault), which also terminate samples through Guard; a
	// kernel bug and a simulated crash are indistinguishable here by
	// design — both are "execution died before classification".
	mGuardPanics = telemetry.NewCounter("exec_guard_panics")
)
