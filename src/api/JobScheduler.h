//===--- JobScheduler.h - Sharded, streaming, resumable suite runs -*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an expanded SuiteSpec two ways behind one interface:
///
///  - `inprocess`  — a pool of Shards driver threads, each running jobs
///    through Analyzer::analyze (every job still owns its SearchEngine
///    worker pool internally).
///  - `subprocess` — a pool of Shards concurrent `wdm run-job` child
///    processes, one fork/exec per job: true process-level sharding,
///    crash-isolated so one aborting solve cannot kill the study.
///
/// The mode only picks how one attempt runs. A run is plan (expand,
/// load the checkpoint, size the shard pool) → per job: attempt under
/// one retry loop (retry, backoff, quarantine) → publish the terminal
/// event → tally the SuiteReport. Listing a suite without running it is
/// `wdm suite expand`.
///
/// Results stream as they finish into an NDJSON event log
/// (`suite_started` / `job_started` / `job_finished` with the full
/// Report / `job_failed` / `job_skipped` / `suite_done`), flushed per
/// event. Under a retry/fault policy the vocabulary extends with
/// `job_retrying` (attempt, reason, backoff delay), `job_quarantined`
/// (full attempt history), and `suite_interrupted` (graceful shutdown —
/// emitted in place of `suite_done` so the log stays a valid resume
/// checkpoint). The same log is the checkpoint: a rerun with Resume
/// skips every job whose `job_finished` record carries the job's
/// content-addressed spec hash, and folds the stored report into the
/// final SuiteReport exactly as if the job had just run.
///
/// Determinism bar: for a fixed suite, the per-job Reports (minus wall
/// clock — see deterministicReportJson) are bit-identical across
/// inprocess, subprocess, and any shard count, because every worker
/// executes the identical canonical spec text; and a resumed run's
/// SuiteReport equals an uninterrupted one in all deterministic fields.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_API_JOBSCHEDULER_H
#define WDM_API_JOBSCHEDULER_H

#include "api/SuiteReport.h"
#include "api/SuiteSpec.h"

#include <atomic>
#include <iosfwd>
#include <optional>
#include <string>

namespace wdm::api {

enum class SuiteMode : uint8_t { InProcess, Subprocess };

const char *suiteModeName(SuiteMode M);
/// Parses "inprocess" | "subprocess"; false on unknown names.
bool suiteModeByName(const std::string &Name, SuiteMode &Out);

struct SuiteRunOptions {
  SuiteMode Mode = SuiteMode::InProcess;
  /// Concurrent jobs (driver threads or child processes). 0 = one per
  /// hardware thread; clamped to the number of pending jobs.
  unsigned Shards = 1;
  /// Skip jobs already checkpointed in EventLog (which then opens in
  /// append mode instead of being truncated).
  bool Resume = false;
  /// Overlay $WDM_STARTS/$WDM_THREADS/$WDM_SEED onto every job before
  /// canonicalization — the CLI policy. Programmatic studies with fixed
  /// seeds (bench/GslStudy) leave this off.
  bool ApplyEnvOverrides = false;
  /// NDJSON event log / checkpoint path; empty = no log (Resume then
  /// has nothing to read and is an error).
  std::string EventLog;
  /// Worker binary for subprocess mode; empty = this process's own
  /// executable (correct when the driver *is* the wdm CLI).
  std::string WorkerExe;
  /// Optional human progress stream (one line per job event).
  std::ostream *Progress = nullptr;
  /// Stream `job_progress` heartbeats: periodic per-job search ticks
  /// (cumulative evals, evals/sec, best weak distance) into the event
  /// log, plus a live status line on Progress. Inprocess shards hook
  /// the SearchEngine directly; subprocess shards ask their `wdm
  /// run-job` child to print ticks on stdout (forwarded over the
  /// existing protocol: any stdout line that parses as an object with
  /// an "event" member is an event, the final other line is the
  /// Report). Off by default — the log then has exactly the historical
  /// event kinds.
  bool LiveProgress = false;
  /// Minimum seconds between two job_progress events of one job
  /// (rate-limits the heartbeat; 0 = every search tick).
  double ProgressPeriodSec = 2.0;

  // -- Fault tolerance ---------------------------------------------------
  // Unset optionals defer to the suite/job `"limits"` policy; a set
  // value overrides it for every job (the CLI flag semantics). Deadlines,
  // stall detection, and resource limits act in subprocess mode (threads
  // cannot be killed safely); retries and fail-fast act in both modes.
  std::optional<double> TimeoutSec;      ///< --timeout=
  std::optional<double> StallTimeoutSec; ///< --stall-timeout=
  std::optional<unsigned> Retries;       ///< --retries=
  std::optional<double> BackoffSec;      ///< --backoff=
  std::optional<unsigned> MemLimitMb;    ///< --mem-limit=
  std::optional<unsigned> CpuLimitSec;   ///< --cpu-limit=
  std::optional<unsigned> MaxFailures;   ///< --max-failures=
  /// Seconds between SIGTERM and the SIGKILL escalation when a child is
  /// killed (deadline, stall, or shutdown).
  double GraceSec = 2.0;
  /// Install SIGINT/SIGTERM handlers for the duration of the run:
  /// graceful shutdown (stop dispatching, terminate children, flush
  /// `suite_interrupted`, exit code 4). The CLI turns this on; embedded
  /// callers keep their own signal policy by default.
  bool HandleSignals = false;
  /// External stop hook for embedded drivers (the serve daemon): when
  /// non-null and set, the run drains exactly like a signal-triggered
  /// shutdown (stop dispatching, cancel children, `suite_interrupted`)
  /// without the scheduler owning any signal handler. Must outlive the
  /// run.
  std::atomic<bool> *StopFlag = nullptr;
};

/// Resume: marks every result whose Id has a `job_finished` record in
/// \p EventLog (with job == spec_hash and a report that still parses)
/// Skipped, with the stored Report, and returns how many it marked.
/// Other events and records are ignored; a missing log marks nothing.
unsigned loadCheckpoint(const std::string &EventLog,
                        std::vector<JobResult> &Results);

class JobScheduler {
public:
  JobScheduler(SuiteSpec Suite, SuiteRunOptions Opts)
      : Suite(std::move(Suite)), Opts(std::move(Opts)) {}

  /// Expands, executes, and aggregates. Errors are driver-level only
  /// (bad suite, unopenable log); individual job failures land in the
  /// SuiteReport as Failed results.
  Expected<SuiteReport> run();

  /// One-shot convenience.
  static Expected<SuiteReport> execute(SuiteSpec Suite,
                                       SuiteRunOptions Opts) {
    return JobScheduler(std::move(Suite), std::move(Opts)).run();
  }

private:
  SuiteSpec Suite;
  SuiteRunOptions Opts;
};

} // namespace wdm::api

#endif // WDM_API_JOBSCHEDULER_H
