//===--- JobScheduler.cpp - Sharded, streaming, resumable suite runs --------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "api/JobScheduler.h"

#include "api/Analyzer.h"
#include "api/Worker.h"
#include "obs/Progress.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "support/BuildInfo.h"
#include "support/FaultInject.h"
#include "support/Hash.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <unordered_map>

#include <unistd.h>

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

const char *wdm::api::suiteModeName(SuiteMode M) {
  switch (M) {
  case SuiteMode::InProcess:
    return "inprocess";
  case SuiteMode::Subprocess:
    return "subprocess";
  }
  return "?";
}

bool wdm::api::suiteModeByName(const std::string &Name, SuiteMode &Out) {
  for (SuiteMode M : {SuiteMode::InProcess, SuiteMode::Subprocess}) {
    if (Name == suiteModeName(M)) {
      Out = M;
      return true;
    }
  }
  return false;
}

namespace {

std::string selfExecutable() {
  char Buf[4096];
  ssize_t N = readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return "";
  Buf[N] = '\0';
  return Buf;
}

/// Scoped SIGPIPE suppression: a shard dying mid-handshake must surface
/// as a job failure (EPIPE on the write), not kill the driver. The
/// previous process disposition is restored on scope exit so embedding
/// api::JobScheduler does not permanently change signal behavior.
class ScopedIgnoreSigpipe {
public:
  ScopedIgnoreSigpipe() : Old(std::signal(SIGPIPE, SIG_IGN)) {}
  ~ScopedIgnoreSigpipe() {
    if (Old != SIG_ERR)
      std::signal(SIGPIPE, Old);
  }

private:
  void (*Old)(int);
};

//===----------------------------------------------------------------------===//
// Graceful shutdown
//===----------------------------------------------------------------------===//

/// The one async-signal-safe shutdown flag. Set by the SIGINT/SIGTERM
/// handler; polled by dispatch loops and child supervision. Only ever
/// raised while a ScopedSignalGuard is installed (its constructor
/// resets it), so one interrupted run cannot poison the next.
std::atomic<bool> GShutdown{false};

void onShutdownSignal(int /*Sig*/) {
  // A relaxed store is the entire handler — anything more is not
  // async-signal-safe. The suite loop does the actual shutdown.
  GShutdown.store(true, std::memory_order_relaxed);
}

/// Installs SIGINT/SIGTERM handlers for the duration of a suite run and
/// restores the previous dispositions on exit. Deliberately without
/// SA_RESTART: the poll/sleep loops treat EINTR as "re-check the
/// shutdown flag now", which is what makes Ctrl-C feel immediate.
class ScopedSignalGuard {
public:
  ScopedSignalGuard() {
    GShutdown.store(false, std::memory_order_relaxed);
    struct sigaction SA = {};
    SA.sa_handler = onShutdownSignal;
    sigemptyset(&SA.sa_mask);
    SA.sa_flags = 0;
    sigaction(SIGINT, &SA, &OldInt);
    sigaction(SIGTERM, &SA, &OldTerm);
  }
  ~ScopedSignalGuard() {
    sigaction(SIGINT, &OldInt, nullptr);
    sigaction(SIGTERM, &OldTerm, nullptr);
  }
  ScopedSignalGuard(const ScopedSignalGuard &) = delete;
  ScopedSignalGuard &operator=(const ScopedSignalGuard &) = delete;

private:
  struct sigaction OldInt = {}, OldTerm = {};
};

/// Sleeps up to \p Sec, polling \p Stop every ~20ms, and returns early
/// on a stop request. Used for retry backoff and injected driver delays
/// — both must yield instantly to shutdown.
void interruptibleSleep(double Sec, const std::function<bool()> &Stop) {
  auto End = std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(Sec));
  while (std::chrono::steady_clock::now() < End && !Stop())
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

/// Exponential backoff with deterministic jitter: Base·2^(attempt−1),
/// capped at 30s, plus up to 25% jitter hashed from (job id, attempt) —
/// retry storms decorrelate across jobs, yet a given suite replays the
/// exact same schedule (no wall-clock or RNG in the policy).
double backoffDelay(double BaseSec, unsigned FailedAttempt,
                    const std::string &JobId) {
  double D = BaseSec * std::pow(2.0, static_cast<double>(FailedAttempt - 1));
  D = std::min(D, 30.0);
  uint64_t H = fnv1a64(JobId + "#" + std::to_string(FailedAttempt));
  return D + static_cast<double>(H % 1000) / 1000.0 * D * 0.25;
}

//===----------------------------------------------------------------------===//
// Event log
//===----------------------------------------------------------------------===//

/// Serializes NDJSON events and progress lines; one flush per event so
/// the log is a valid checkpoint after a mid-suite kill. Every event is
/// stamped with an absolute "ts" (ISO-8601 UTC) on the way out, so log
/// lines are attributable without correlating against a wrapper's
/// timestamps.
class EventSink {
public:
  EventSink(std::ofstream *Log, std::ostream *Progress)
      : Log(Log), Progress(Progress) {}

  void event(Value Doc) {
    Doc.set("ts", Value::string(isoUtcNow()));
    std::lock_guard<std::mutex> Lock(M);
    if (Log)
      *Log << Doc.dump() << "\n" << std::flush;
  }

  void progress(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(M);
    if (Progress) {
      closeLiveLocked();
      *Progress << Line << "\n" << std::flush;
    }
  }

  /// Rewrites a single status line in place (CR + erase-to-EOL); the
  /// next regular progress line pushes it out with a newline first.
  void liveLine(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(M);
    if (Progress) {
      *Progress << "\r\033[2K" << Line << std::flush;
      LiveOpen = true;
    }
  }

  /// Ends any open live line so the terminal cursor lands on a fresh
  /// row when the suite finishes.
  void closeLive() {
    std::lock_guard<std::mutex> Lock(M);
    closeLiveLocked();
  }

private:
  void closeLiveLocked() {
    if (LiveOpen && Progress) {
      *Progress << "\n" << std::flush;
      LiveOpen = false;
    }
  }

  std::mutex M;
  std::ofstream *Log;
  std::ostream *Progress;
  bool LiveOpen = false;
};

/// "[<id>] <subject>: <what>" — the shape of every per-job progress
/// line (wdmbench's JobClock times jobs by it).
std::string progressLine(const SuiteJob &Job, const std::string &What) {
  return "[" + Job.Id + "] " + Job.subject() + ": " + What;
}

Value jobEvent(const char *Kind, const SuiteJob &Job) {
  return Value::object()
      .set("event", Value::string(Kind))
      .set("job", Value::string(Job.Id))
      .set("index", Value::number(static_cast<uint64_t>(Job.Index)))
      .set("task", Value::string(taskKindName(Job.Spec.Task)))
      .set("subject", Value::string(subjectText(Job.Spec)));
}

/// Per-job heartbeat rate limiter: at most one job_progress per
/// PeriodSec per job (final ticks always pass).
struct ProgressGate {
  std::mutex Mu;
  std::map<std::string, std::chrono::steady_clock::time_point> LastEmit;

  bool allow(const std::string &Job, double PeriodSec, bool Final) {
    auto Now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = LastEmit.find(Job);
    if (!Final && It != LastEmit.end() &&
        std::chrono::duration<double>(Now - It->second).count() <
            PeriodSec)
      return false;
    LastEmit[Job] = Now;
    return true;
  }
};

//===----------------------------------------------------------------------===//
// Plan
//===----------------------------------------------------------------------===//

/// Expands the suite into \p Jobs and returns the run's skeleton: one
/// Listed result per job (checkpointed ones already Skipped under
/// Resume) and the shard count, clamped to the pending jobs.
Expected<SuiteReport> plan(const SuiteSpec &Suite,
                           const SuiteRunOptions &Opts,
                           std::vector<SuiteJob> &Jobs) {
  using E = Expected<SuiteReport>;
  if (Opts.Resume && Opts.EventLog.empty())
    return E::error("suite: --resume needs an event log path");
  Expected<std::vector<SuiteJob>> Expanded =
      Suite.expand(Opts.ApplyEnvOverrides);
  if (!Expanded)
    return E::error(Expanded.error());
  Jobs = Expanded.take();

  SuiteReport Rep;
  Rep.Suite = Suite.Name;
  Rep.Mode = suiteModeName(Opts.Mode);
  Rep.Jobs = static_cast<unsigned>(Jobs.size());
  Rep.Results.resize(Jobs.size());
  for (const SuiteJob &Job : Jobs) {
    JobResult &JR = Rep.Results[Job.Index];
    JR.Id = Job.Id;
    JR.Index = Job.Index;
    JR.Spec = Job.Spec;
    JR.CanonicalSpec = Job.CanonicalSpec;
  }
  unsigned Resumed =
      Opts.Resume ? loadCheckpoint(Opts.EventLog, Rep.Results) : 0;
  unsigned Shards = Opts.Shards ? Opts.Shards
                                : std::max(1u,
                                           std::thread::hardware_concurrency());
  Rep.Shards = std::min(Shards, std::max(1u, Rep.Jobs - Resumed));
  return Rep;
}

//===----------------------------------------------------------------------===//
// Attempt, retry loop, publish
//===----------------------------------------------------------------------===//

/// Writes a job's terminal event and closing progress line.
void publish(EventSink &Sink, const SuiteJob &Job, const JobResult &JR) {
  if (JR.S == JobResult::State::Executed) {
    Value ReportJson = JR.R.toJson();
    std::string ReportHash =
        fnv1a64Hex(deterministicReportJson(ReportJson).dump());
    Sink.event(jobEvent("job_finished", Job)
                   .set("spec_hash", Value::string(Job.Id))
                   .set("report_hash", Value::string(ReportHash))
                   .set("attempt", Value::number(static_cast<uint64_t>(
                                       JR.Attempts.size())))
                   .set("report", std::move(ReportJson)));
    Sink.progress(progressLine(
        Job, "done — " + std::to_string(JR.R.Findings.size()) +
                 " finding(s), " + std::to_string(JR.R.Evals) + " evals, " +
                 formatf("%.2fs", JR.R.Seconds)));
  } else if (JR.S == JobResult::State::Quarantined) {
    obs::count("suite.quarantined");
    Value As = Value::array();
    for (const JobAttempt &QA : JR.Attempts)
      As.push(QA.toJson());
    Sink.event(jobEvent("job_quarantined", Job)
                   .set("spec_hash", Value::string(Job.Id))
                   .set("error", Value::string(JR.Error))
                   .set("attempts", std::move(As)));
    Sink.progress(progressLine(
        Job, "QUARANTINED after " + std::to_string(JR.Attempts.size()) +
                 " attempt(s) — " + JR.Error));
  } else if (JR.S == JobResult::State::Failed) {
    Value Ev = jobEvent("job_failed", Job)
                   .set("spec_hash", Value::string(Job.Id))
                   .set("error", Value::string(JR.Error));
    if (!JR.Attempts.empty()) {
      // Debuggable from the log alone: how the worker died and what it
      // said last.
      const JobAttempt &FA = JR.Attempts.back();
      Ev.set("attempt", Value::number(FA.Number));
      if (FA.ExitCode >= 0)
        Ev.set("exit_code", Value::number(static_cast<int64_t>(FA.ExitCode)));
      if (FA.Signal) {
        Ev.set("signal", Value::number(static_cast<int64_t>(FA.Signal)));
        Ev.set("signal_name", Value::string(FA.SignalName));
      }
      if (!FA.LimitHit.empty())
        Ev.set("limit", Value::string(FA.LimitHit));
      if (!FA.StderrTail.empty())
        Ev.set("stderr_tail", Value::string(FA.StderrTail));
    }
    Sink.event(std::move(Ev));
    Sink.progress(progressLine(Job, "FAILED — " + JR.Error));
  } else if (JR.S == JobResult::State::Interrupted) {
    Sink.progress(progressLine(Job, "interrupted"));
  }
}

/// What every job of one planned run shares: the options, the event
/// sink, the fault plan, the stop flags and the supervision counters.
/// runJob is the whole per-job lifecycle; Attempt is the one
/// mode-specific step inside it.
struct JobRunner {
  using AttemptFn = JobAttempt (JobRunner::*)(const SuiteJob &,
                                              const JobLimits &, unsigned,
                                              Report &);

  const SuiteRunOptions &Opts;
  EventSink &Sink;
  const unsigned MaxFailures;
  const std::vector<fault::Clause> FaultPlan; ///< WDM_FAULT; tests and CI.
  AttemptFn Attempt = nullptr;
  std::string WorkerExe; ///< Subprocess mode only.
  std::optional<ScopedSignalGuard> SigGuard;
  std::atomic<bool> Abort{false}; // --max-failures fail-fast.
  std::atomic<unsigned> TerminalFailures{0};
  std::atomic<uint64_t> NRetries{0}, NTimeouts{0}, NStalls{0};
  ProgressGate Gate;
  const std::function<bool()> Stop = [this] { return stopRequested(); };

  /// Why (whether) the run stopped early, "" while it runs on. Signal
  /// wins over fail-fast: exit code 4 tells the caller the log is a
  /// resume checkpoint, which is true either way, but the cause matters.
  const char *stopReason() const {
    if (SigGuard.has_value() && GShutdown.load(std::memory_order_relaxed))
      return "signal";
    if (Opts.StopFlag && Opts.StopFlag->load(std::memory_order_relaxed))
      return "stopped";
    if (Abort.load(std::memory_order_relaxed))
      return "max-failures";
    return "";
  }
  bool stopRequested() const { return *stopReason() != '\0'; }

  /// Per-job effective limits: suite/job "limits" (merged at expand)
  /// with CLI/API overrides on top.
  JobLimits effectiveLimits(const SuiteJob &Job) const {
    JobLimits L = Job.Limits;
    L.TimeoutSec = Opts.TimeoutSec.value_or(L.TimeoutSec);
    L.StallTimeoutSec = Opts.StallTimeoutSec.value_or(L.StallTimeoutSec);
    L.Retries = Opts.Retries.value_or(L.Retries);
    L.BackoffSec = Opts.BackoffSec.value_or(L.BackoffSec);
    L.MemLimitMb = Opts.MemLimitMb.value_or(L.MemLimitMb);
    L.CpuLimitSec = Opts.CpuLimitSec.value_or(L.CpuLimitSec);
    return L;
  }

  /// One publication path for both modes' heartbeats: a job_progress
  /// event into the log plus a rewritten live status line.
  void publishProgress(const Value &Ev) {
    Sink.event(Ev);
    auto Num = [&](const char *Key) {
      const Value *V = Ev.find(Key);
      return V ? V->asDouble() : 0.0;
    };
    const Value *Id = Ev.find("job");
    Sink.liveLine(formatf(
        "[%s] start %u/%u, %llu evals (%.0f/s), best w=%s",
        Id ? Id->asString().c_str() : "?",
        static_cast<unsigned>(Num("starts_done")),
        static_cast<unsigned>(Num("starts")),
        static_cast<unsigned long long>(Num("evals")),
        Num("evals_per_sec"), formatDoubleCompact(Num("best_w")).c_str()));
  }

  /// In-process heartbeats tap the SearchEngine directly; the tick's job
  /// tag is the driver thread's (set around each in-process attempt).
  void onSearchTick(const obs::SearchTick &T) {
    if (T.Job.empty() || !Gate.allow(T.Job, Opts.ProgressPeriodSec, T.Final))
      return;
    double Rate = T.Seconds > 0 ? T.Evals / T.Seconds : 0;
    publishProgress(Value::object()
                        .set("event", Value::string("job_progress"))
                        .set("job", Value::string(T.Job))
                        .set("evals", Value::number(T.Evals))
                        .set("best_w", Value::number(T.BestW))
                        .set("evals_per_sec", Value::number(Rate))
                        .set("starts_done", Value::number(T.StartsDone))
                        .set("starts", Value::number(T.Starts)));
  }

  /// Runs the job from its canonical text, exactly like a subprocess
  /// shard — mode identity holds by construction. Deadlines and rlimits
  /// cannot act here (a thread cannot be killed safely); retries and
  /// fail-fast still do.
  JobAttempt attemptInProcess(const SuiteJob &Job, const JobLimits &,
                              unsigned, Report &Out) {
    JobAttempt A;
    auto T0 = std::chrono::steady_clock::now();
    obs::setJobTag(Job.Id);
    Expected<AnalysisSpec> Spec = AnalysisSpec::parse(Job.CanonicalSpec);
    Expected<Report> R = Spec ? Analyzer::analyze(*Spec)
                              : Expected<Report>::error(Spec.error());
    obs::setJobTag("");
    A.Seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    if (R) {
      A.Outcome = "ok";
      Out = R.take();
    } else {
      A.Outcome = "failed";
      A.Error = R.error();
    }
    return A;
  }

  /// One supervised `wdm run-job` child, classified.
  JobAttempt attemptSubprocess(const SuiteJob &Job, const JobLimits &L,
                               unsigned Number, Report &Out) {
    // A --progress-every child streams job_progress lines on stdout;
    // re-tag them with the job id (the child does not know it) and
    // publish. The child rate-limits, so no Gate here. With stall
    // detection but no live progress, the lines are swallowed — the log
    // keeps its historical vocabulary and the raw bytes already served
    // as the liveness signal.
    std::function<void(Value)> OnEvent;
    if (Opts.LiveProgress)
      OnEvent = [&](Value Ev) {
        const Value *Kind = Ev.find("event");
        if (!Kind || Kind->asString() != "job_progress")
          return;
        Ev.set("job", Value::string(Job.Id));
        publishProgress(Ev);
      };
    else if (L.StallTimeoutSec > 0)
      OnEvent = [](Value) {};

    std::vector<std::string> Args;
    if (Opts.LiveProgress || L.StallTimeoutSec > 0) {
      // --progress-every=0 means every tick, which no stall window
      // shortens.
      double HeartbeatSec =
          Opts.LiveProgress ? Opts.ProgressPeriodSec : HUGE_VAL;
      if (L.StallTimeoutSec > 0 && HeartbeatSec > 0)
        // Heartbeats must land comfortably inside the stall window or
        // healthy jobs get killed. Note the engine ticks once per
        // completed start: size stall timeouts above the longest
        // expected single start.
        HeartbeatSec =
            std::min(HeartbeatSec, std::max(0.2, L.StallTimeoutSec / 3));
      Args.push_back(formatf("--progress-every=%g", HeartbeatSec));
    }
    if (!FaultPlan.empty())
      Args.push_back(formatf("--fault-tag=%zu.%u", Job.Index, Number));

    WorkerRun W = spawnRunJob(WorkerExe, Job.CanonicalSpec + "\n", Args,
                              OnEvent, L, Opts.GraceSec, Stop);
    return classify(W, L, stopRequested(), Out);
  }

  /// The whole per-job lifecycle: attempts under one retry loop for both
  /// modes (retry, backoff, quarantine), then the terminal event.
  /// Returns false when the shard should stop dispatching
  /// (shutdown/fail-fast).
  bool runJob(const SuiteJob &Job, JobResult &JR) {
    if (JR.S == JobResult::State::Skipped)
      return true;
    if (stopRequested())
      return false; // Undispatched jobs stay Listed; marked after join.
    const JobLimits L = effectiveLimits(Job);
    Sink.event(jobEvent("job_started", Job));
    Sink.progress(progressLine(Job, "started"));

    obs::ScopedSpan JobSpan("job");
    if (obs::tracing())
      JobSpan.setArgs(
          Value::object()
              .set("job", Value::string(Job.Id))
              .set("task", Value::string(taskKindName(Job.Spec.Task)))
              .set("subject", Value::string(Job.subject())));

    const unsigned MaxAttempts = 1 + L.Retries;
    for (unsigned Number = 1; Number <= MaxAttempts; ++Number) {
      // Driver-side injected delay ("sleep" fault) — a deterministic
      // window for shutdown tests in both scheduler modes.
      if (!FaultPlan.empty())
        if (std::optional<fault::Clause> C =
                fault::actionFor(FaultPlan, Job.Index, Number);
            C && C->Action == "sleep")
          interruptibleSleep(C->Param > 0 ? C->Param : 3, Stop);
      if (stopRequested()) {
        JR.S = JobResult::State::Interrupted;
        break;
      }

      JobAttempt A = (this->*Attempt)(Job, L, Number, JR.R);
      A.Number = Number;
      if (A.Outcome == "timeout") {
        NTimeouts.fetch_add(1, std::memory_order_relaxed);
        obs::count("suite.timeouts");
      } else if (A.Outcome == "stalled") {
        NStalls.fetch_add(1, std::memory_order_relaxed);
        obs::count("suite.stalled");
      }

      if (A.Outcome == "ok" || A.Outcome == "interrupted") {
        JR.S = A.Outcome == "ok" ? JobResult::State::Executed
                                 : JobResult::State::Interrupted;
        JR.Attempts.push_back(std::move(A));
        break;
      }
      if (Number < MaxAttempts && !stopRequested()) {
        double Delay = backoffDelay(L.BackoffSec, Number, Job.Id);
        A.RetryDelaySec = Delay;
        Sink.event(jobEvent("job_retrying", Job)
                       .set("spec_hash", Value::string(Job.Id))
                       .set("attempt", Value::number(Number))
                       .set("reason", Value::string(A.Outcome))
                       .set("error", Value::string(A.Error))
                       .set("delay_sec", Value::number(Delay)));
        Sink.progress(progressLine(
            Job, formatf("attempt %u %s — retrying in %.2fs (%s)", Number,
                         A.Outcome.c_str(), Delay, A.Error.c_str())));
        NRetries.fetch_add(1, std::memory_order_relaxed);
        obs::count("suite.retries");
        JR.Attempts.push_back(std::move(A));
        interruptibleSleep(Delay, Stop);
        continue;
      }
      // Terminal failure: out of attempts (quarantine when a retry
      // budget existed) or a shutdown cut the retry loop short.
      JR.Error = A.Error;
      JR.Attempts.push_back(std::move(A));
      JR.S = L.Retries > 0 ? JobResult::State::Quarantined
                           : JobResult::State::Failed;
      break;
    }

    publish(Sink, Job, JR);
    if (JR.S == JobResult::State::Failed ||
        JR.S == JobResult::State::Quarantined) {
      unsigned Total =
          TerminalFailures.fetch_add(1, std::memory_order_relaxed) + 1;
      if (MaxFailures && Total >= MaxFailures)
        Abort.store(true, std::memory_order_relaxed);
    }
    return true;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// JobScheduler
//===----------------------------------------------------------------------===//

unsigned wdm::api::loadCheckpoint(const std::string &EventLog,
                                  std::vector<JobResult> &Results) {
  // A missing log is simply a fresh run; unreadable-but-present is
  // indistinguishable from missing at this layer, and either way the
  // suite re-executes everything (correct, just not incremental).
  Expected<std::vector<Value>> Events = json::readNdjsonFile(EventLog);
  if (!Events)
    return 0;
  std::unordered_map<std::string_view, JobResult *> ById;
  for (JobResult &JR : Results)
    ById.emplace(JR.Id, &JR);
  unsigned Loaded = 0;
  for (const Value &Ev : *Events) {
    const Value *Kind = Ev.find("event");
    const Value *Id = Ev.find("job");
    const Value *Hash = Ev.find("spec_hash");
    const Value *Stored = Ev.find("report");
    if (!Kind || Kind->asString() != "job_finished" || !Id || !Hash ||
        !Stored || Id->asString() != Hash->asString())
      continue;
    auto It = ById.find(Id->asString());
    if (It == ById.end())
      continue;
    // A record that no longer parses as a Report is dropped, and the
    // job re-runs.
    Expected<Report> R = Report::fromJson(*Stored);
    if (!R)
      continue;
    JobResult &JR = *It->second;
    Loaded += JR.S != JobResult::State::Skipped;
    JR.S = JobResult::State::Skipped;
    JR.R = R.take();
  }
  return Loaded;
}

Expected<SuiteReport> JobScheduler::run() {
  using E = Expected<SuiteReport>;
  auto Clock0 = std::chrono::steady_clock::now();

  std::vector<SuiteJob> Jobs;
  Expected<SuiteReport> Planned = plan(Suite, Opts, Jobs);
  if (!Planned)
    return Planned;
  SuiteReport &Rep = *Planned;

  // Deterministic fault plan (WDM_FAULT) — tests and CI only. A typo'd
  // plan is a driver error, not a silently fault-free run.
  std::vector<fault::Clause> FaultPlan;
  if (fault::enabled()) {
    Expected<std::vector<fault::Clause>> Plan =
        fault::parse(fault::envSpec());
    if (!Plan)
      return E::error("suite: " + Plan.error());
    FaultPlan = Plan.take();
  }

  std::ofstream Log;
  if (!Opts.EventLog.empty()) {
    Log.open(Opts.EventLog, Opts.Resume ? std::ios::app : std::ios::trunc);
    if (!Log)
      return E::error("suite: cannot open event log '" + Opts.EventLog +
                      "'");
    // A crash can cut the log mid-line; appending straight after the
    // fragment would glue the first new event onto it.
    if (Opts.Resume) {
      char Last = '\n';
      std::ifstream Tail(Opts.EventLog, std::ios::binary);
      if (Tail.seekg(-1, std::ios::end) && Tail.get(Last) && Last != '\n')
        Log << '\n';
    }
  }
  EventSink Sink(Log.is_open() ? &Log : nullptr, Opts.Progress);
  JobRunner Run{Opts, Sink,
                Opts.MaxFailures ? *Opts.MaxFailures
                                 : Suite.baseLimits().MaxFailures,
                std::move(FaultPlan)};
  // Graceful shutdown: handlers live exactly as long as the run.
  if (Opts.HandleSignals)
    Run.SigGuard.emplace();

  // The mode picks the attempt function; everything else is shared.
  std::optional<ScopedIgnoreSigpipe> NoSigpipe;
  switch (Opts.Mode) {
  case SuiteMode::InProcess:
    Run.Attempt = &JobRunner::attemptInProcess;
    break;
  case SuiteMode::Subprocess:
    Run.WorkerExe =
        Opts.WorkerExe.empty() ? selfExecutable() : Opts.WorkerExe;
    if (Run.WorkerExe.empty())
      return E::error("suite: cannot resolve the worker executable "
                      "(pass SuiteRunOptions::WorkerExe)");
    NoSigpipe.emplace();
    Run.Attempt = &JobRunner::attemptSubprocess;
    break;
  }

  auto isSkipped = [](const JobResult &JR) {
    return JR.S == JobResult::State::Skipped;
  };
  Sink.event(
      Value::object()
          .set("event", Value::string("suite_started"))
          .set("suite", Value::string(Suite.Name))
          .set("mode", Value::string(Rep.Mode))
          .set("shards", Value::number(Rep.Shards))
          .set("jobs", Value::number(static_cast<uint64_t>(Jobs.size())))
          .set("resumed", Value::number(static_cast<uint64_t>(std::count_if(
                              Rep.Results.begin(), Rep.Results.end(),
                              isSkipped))))
          .set("build", support::buildInfoJson()));
  for (const SuiteJob &Job : Jobs)
    if (isSkipped(Rep.Results[Job.Index])) {
      Sink.event(jobEvent("job_skipped", Job));
      Sink.progress(progressLine(Job, "skipped (checkpointed)"));
    }

  // -- Dispatch ----------------------------------------------------------
  // Shards pop job indexes from one shared counter. Per-job Reports are
  // identical at any shard count: every worker executes the identical
  // canonical spec text, only which shard ran a job changes.
  if (Opts.LiveProgress)
    obs::setSearchListener(
        [&Run](const obs::SearchTick &T) { Run.onSearchTick(T); });
  std::atomic<size_t> Next{0};
  auto Shard = [&](unsigned S) {
    obs::setThreadTrackName(formatf("shard %u", S));
    for (size_t I = Next.fetch_add(1); I < Jobs.size();
         I = Next.fetch_add(1))
      if (!Run.runJob(Jobs[I], Rep.Results[I]))
        break;
  };
  if (Rep.Shards == 1) {
    Shard(0); // Sequential on the caller's thread.
  } else {
    std::vector<std::thread> Pool;
    for (unsigned S = 0; S < Rep.Shards; ++S)
      Pool.emplace_back(Shard, S);
    for (std::thread &T : Pool)
      T.join();
  }
  if (Opts.LiveProgress)
    obs::clearSearchListener();
  Sink.closeLive();

  // -- Tally -------------------------------------------------------------
  Rep.Stopped = Run.stopReason();
  // Undispatched jobs of a stopped run are exactly the unfinished set a
  // --resume re-executes.
  if (!Rep.Stopped.empty())
    for (JobResult &JR : Rep.Results)
      if (JR.S == JobResult::State::Listed)
        JR.S = JobResult::State::Interrupted;
  Rep.Retries = Run.NRetries.load(std::memory_order_relaxed);
  Rep.Timeouts = Run.NTimeouts.load(std::memory_order_relaxed);
  Rep.Stalls = Run.NStalls.load(std::memory_order_relaxed);
  Rep.tally();
  Rep.Seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Clock0)
                    .count();

  // The per-job summaries are already in the per-job events; keep the
  // closing event to the aggregates. A stopped run closes with
  // suite_interrupted instead of suite_done — same payload plus the
  // reason — so the log both explains itself and stays a valid resume
  // checkpoint (the reader keys on job_finished records only).
  const bool WasStopped = !Rep.Stopped.empty();
  Value Trimmed = Value::object().set(
      "event",
      Value::string(WasStopped ? "suite_interrupted" : "suite_done"));
  if (WasStopped)
    Trimmed.set("reason", Value::string(Rep.Stopped));
  Value DoneEv = Rep.toJson(/*WithResults=*/false);
  for (const auto &[Key, V] : DoneEv.members())
    Trimmed.set(Key, V);
  Sink.event(Trimmed);
  return Planned;
}
