//===--- SuiteReport.h - Aggregate result of a suite run -------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform result of one JobScheduler run: per-job outcomes in
/// deterministic expansion order plus the study-level aggregates the
/// paper's tables are built from (per-task finding counts, evals, wall
/// time). A resumed run's SuiteReport equals an uninterrupted one in
/// every deterministic field — skipped jobs contribute their
/// checkpointed reports exactly as if they had just run.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_API_SUITEREPORT_H
#define WDM_API_SUITEREPORT_H

#include "api/Report.h"
#include "api/SuiteSpec.h"

#include <cstdint>
#include <string>
#include <vector>

namespace wdm::api {

/// One execution attempt of a suite job. Attempt histories make a
/// quarantined job debuggable from the report/log alone: what each
/// attempt died of, how it was killed, and what the child said last.
struct JobAttempt {
  unsigned Number = 1;
  /// "ok" | "failed" | "timeout" | "stalled" | "interrupted".
  std::string Outcome;
  std::string Error;      ///< Diagnostic for non-ok attempts.
  int ExitCode = -1;      ///< Child exit code (when it exited).
  int Signal = 0;         ///< Terminating signal (when signaled).
  std::string SignalName; ///< Decoded ("SIGKILL", ...); empty if none.
  /// Which resource limit likely killed the child: "" | "cpu" | "mem".
  std::string LimitHit;
  std::string StderrTail; ///< Last ≤4 KiB of child stderr (bounded).
  double Seconds = 0;     ///< Attempt wall clock.
  double RetryDelaySec = 0; ///< Backoff slept before the *next* attempt.

  json::Value toJson() const;
};

/// One job's outcome within a suite run.
struct JobResult {
  enum class State : uint8_t {
    Listed,      ///< Expanded but not (yet) dispatched.
    Executed,    ///< Ran in this invocation.
    Skipped,     ///< Satisfied from the checkpoint log (--resume).
    Failed,      ///< Worker error (crashed shard, invalid module, ...).
    Quarantined, ///< Failed every attempt of a retry budget.
    Interrupted, ///< Suite shut down before/while this job ran.
  };

  std::string Id; ///< Content-addressed SuiteJob id (= spec hash).
  size_t Index = 0;
  AnalysisSpec Spec;
  std::string CanonicalSpec;
  State S = State::Listed;
  std::string Error; ///< Failure diagnostic (Failed/Quarantined).
  Report R;          ///< Valid for Executed and Skipped.
  /// Attempt history; recorded whenever supervision did something
  /// interesting (any non-ok attempt or more than one attempt).
  std::vector<JobAttempt> Attempts;

  bool hasReport() const {
    return S == State::Executed || S == State::Skipped;
  }
  const char *stateName() const;
};

struct SuiteReport {
  std::string Suite;
  std::string Mode; ///< "inprocess" | "subprocess".
  unsigned Shards = 1;

  unsigned Jobs = 0;
  unsigned Executed = 0;
  unsigned Skipped = 0;
  unsigned Failed = 0;
  unsigned Quarantined = 0;  ///< Jobs that exhausted their retry budget.
  unsigned Interrupted = 0;  ///< Jobs cut short by suite shutdown.
  unsigned Succeeded = 0; ///< Jobs whose Report.Success is true.
  uint64_t Findings = 0;
  uint64_t Evals = 0;
  uint64_t Retries = 0;  ///< Retry attempts dispatched across all jobs.
  uint64_t Timeouts = 0; ///< Attempts killed at their wall deadline.
  uint64_t Stalls = 0;   ///< Attempts killed by the stall detector.
  double Seconds = 0;    ///< Driver wall clock for this invocation.
  double JobSeconds = 0; ///< Sum of per-job report seconds.
  /// Why the run stopped early: "" (it didn't) | "signal" (SIGINT/
  /// SIGTERM graceful shutdown) | "max-failures" (fail-fast threshold).
  std::string Stopped;

  /// Per-task aggregates, in canonical TaskKind order, present tasks
  /// only.
  struct TaskStats {
    std::string Task;
    unsigned Jobs = 0;
    unsigned Succeeded = 0;
    uint64_t Findings = 0;
    uint64_t Evals = 0;
    double Seconds = 0;
  };
  std::vector<TaskStats> PerTask;

  /// Per-job outcomes in expansion order.
  std::vector<JobResult> Results;

  /// Fills the job counts, report sums and PerTask from Results;
  /// Skipped reports count like Executed ones. Expects the counts still
  /// zero (a run tallies once).
  void tally();

  /// The shared wdm exit-code contract: 4 when the run was stopped by a
  /// signal (the log is a valid resume checkpoint), else 3 when any job
  /// failed or was quarantined, else 1 when any findings were produced,
  /// else 0.
  int exitCode() const;

  /// Aggregates + per-task stats + per-job summaries (not the full
  /// per-job reports — the NDJSON event log carries those). The closing
  /// event of a suite log leaves the per-job summaries out.
  json::Value toJson(bool WithResults = true) const;
  std::string toJsonText() const;
};

} // namespace wdm::api

#endif // WDM_API_SUITEREPORT_H
