//===--- Worker.h - One supervised `wdm run-job` attempt --------*- C++ -*-===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A subprocess suite attempt is spawnRunJob (fork, exec and supervise
/// one `wdm run-job -` child) followed by classify, which is pure so
/// that every rung of its outcome ladder is testable without a fork.
///
//===----------------------------------------------------------------------===//

#ifndef WDM_API_WORKER_H
#define WDM_API_WORKER_H

#include "api/SuiteReport.h"

#include <functional>
#include <string>
#include <vector>

namespace wdm::api {

/// Outcome of one `wdm run-job -` child.
struct WorkerRun {
  bool SpawnOk = false;
  std::string SpawnError;
  bool Signaled = false;
  int Signal = 0;
  int ExitCode = 0;
  bool TimedOut = false;   ///< Killed at the wall-clock deadline.
  bool Stalled = false;    ///< Killed by the stall detector.
  bool Canceled = false;   ///< Killed by cooperative cancellation.
  double Seconds = 0;      ///< Attempt wall clock (spawn to reap).
  std::string Out; ///< Child stdout (the report JSON line).
  std::string Err; ///< Child stderr (diagnostics; bounded tail).
};

/// Forks/execs `Exe run-job - [ExtraArgs...]`, feeds \p SpecText on
/// stdin, and drains stdout/stderr through a poll loop (no deadlock
/// regardless of how the child interleaves its writes). The driver may
/// be multi-threaded: the child only calls async-signal-safe functions
/// before exec.
///
/// Child stdout is split on newlines as it streams in: every complete
/// line that parses as a JSON object with an "event" member is handed
/// to \p OnEvent (when set) instead of accumulating — this is how a
/// `--progress-every` child's job_progress heartbeats reach the driver
/// live. Everything else (the final report line) lands in R.Out.
///
/// Supervision comes from \p L: its mem and cpu limits become the
/// child's RLIMIT_AS (MiB) and RLIMIT_CPU soft limit (sec), applied
/// between fork and exec; its timeout is a wall-clock deadline; its
/// stall timeout kills a child with no stdout/stderr bytes for that
/// long (any child output counts as liveness, so heartbeats double as
/// the signal). \p Canceled is polled cooperative cancellation
/// (graceful suite shutdown). Every kill is SIGTERM, \p GraceSec to
/// flush and exit, then SIGKILL. SIGKILL cannot be ignored, so even a
/// worker that traps SIGTERM and sleeps is reclaimed.
WorkerRun spawnRunJob(const std::string &Exe, const std::string &SpecText,
                      const std::vector<std::string> &ExtraArgs,
                      const std::function<void(json::Value)> &OnEvent,
                      const JobLimits &L, double GraceSec,
                      const std::function<bool()> &Canceled);

/// "SIGKILL", "SIGUSR1", ... as libc names them; "signal N" otherwise.
std::string signalName(int Sig);

/// The outcome ladder of one finished child, first match wins: spawn
/// failure, timeout, stall, shutdown (\p Stopping: a stop was requested
/// when the child was reaped), signal death (with cpu/mem attribution
/// under \p L's limits), worker exit ≥ 2, then the stdout Report. On an
/// "ok" outcome the report is parsed into \p Out; otherwise \p Out is
/// untouched. The caller numbers the attempt.
JobAttempt classify(const WorkerRun &W, const JobLimits &L, bool Stopping,
                    Report &Out);

} // namespace wdm::api

#endif // WDM_API_WORKER_H
