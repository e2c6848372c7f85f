//===--- JobScheduler.cpp - Sharded, streaming, resumable suite runs --------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "api/JobScheduler.h"

#include "api/Analyzer.h"
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
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>

#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
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
  case SuiteMode::Dry:
    return "dry";
  }
  return "?";
}

bool wdm::api::suiteModeByName(const std::string &Name, SuiteMode &Out) {
  for (SuiteMode M :
       {SuiteMode::InProcess, SuiteMode::Subprocess, SuiteMode::Dry}) {
    if (Name == suiteModeName(M)) {
      Out = M;
      return true;
    }
  }
  return false;
}

namespace {

//===----------------------------------------------------------------------===//
// Subprocess worker plumbing
//===----------------------------------------------------------------------===//

/// Supervision policy for one `wdm run-job` child: deadlines, resource
/// limits, the SIGTERM→grace→SIGKILL escalation, and cooperative
/// cancellation. All-defaults = the historical unsupervised behavior.
struct SpawnPolicy {
  double TimeoutSec = 0; ///< Wall-clock deadline; 0 = none.
  /// No stdout/stderr bytes (heartbeats included) for N sec = stalled.
  double StallSec = 0;
  double GraceSec = 2.0;    ///< SIGTERM → SIGKILL escalation window.
  unsigned MemLimitMb = 0;  ///< Child RLIMIT_AS, MiB.
  unsigned CpuLimitSec = 0; ///< Child RLIMIT_CPU soft limit, sec.
  /// Polled cooperative cancellation (graceful suite shutdown). The
  /// child is escalated-killed when this turns true.
  std::function<bool()> Canceled;

  bool supervised() const {
    return TimeoutSec > 0 || StallSec > 0 || static_cast<bool>(Canceled);
  }
};

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

/// Child stderr is kept as a bounded tail: a crash-looping worker can
/// write arbitrarily much, and only the last few KiB ever reach a
/// diagnostic. Trimmed in hysteresis steps so appends stay amortized.
constexpr size_t StderrTailBytes = 4096;
constexpr size_t StderrTrimAt = 2 * StderrTailBytes;

void boundStderrTail(std::string &Err) {
  if (Err.size() > StderrTrimAt)
    Err.erase(0, Err.size() - StderrTailBytes);
}

const char *signalName(int Sig) {
  switch (Sig) {
  case SIGHUP:
    return "SIGHUP";
  case SIGINT:
    return "SIGINT";
  case SIGQUIT:
    return "SIGQUIT";
  case SIGILL:
    return "SIGILL";
  case SIGABRT:
    return "SIGABRT";
  case SIGBUS:
    return "SIGBUS";
  case SIGFPE:
    return "SIGFPE";
  case SIGKILL:
    return "SIGKILL";
  case SIGSEGV:
    return "SIGSEGV";
  case SIGPIPE:
    return "SIGPIPE";
  case SIGALRM:
    return "SIGALRM";
  case SIGTERM:
    return "SIGTERM";
  case SIGXCPU:
    return "SIGXCPU";
  case SIGXFSZ:
    return "SIGXFSZ";
  default:
    return nullptr;
  }
}

std::string signalNameOr(int Sig) {
  if (const char *N = signalName(Sig))
    return N;
  return "signal " + std::to_string(Sig);
}

/// A short EINTR-tolerant nap; an early signal wakeup just makes the
/// caller's loop re-check its condition sooner, which is the point of
/// installing handlers without SA_RESTART.
void napMs(long Ms) {
  timespec Req;
  Req.tv_sec = Ms / 1000;
  Req.tv_nsec = (Ms % 1000) * 1000000L;
  nanosleep(&Req, nullptr);
}

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
/// \p Policy adds supervision: RLIMIT_AS/RLIMIT_CPU applied between
/// fork and exec, a wall-clock deadline, a stall detector (any child
/// output counts as liveness, so heartbeats double as the signal), and
/// cooperative cancellation — all killing via SIGTERM, a grace period,
/// then SIGKILL. SIGKILL cannot be ignored, so even a worker that traps
/// SIGTERM and sleeps is reclaimed.
WorkerRun spawnRunJob(const std::string &Exe, const std::string &SpecText,
                      const std::vector<std::string> &ExtraArgs = {},
                      const std::function<void(Value)> &OnEvent = nullptr,
                      const SpawnPolicy &Policy = {}) {
  WorkerRun R;
  int In[2], Out[2], Err[2];
  // O_CLOEXEC is load-bearing: shard threads fork concurrently, and a
  // plain pipe fd inherited into a *sibling's* child would keep that
  // sibling's stdin open past our close() — its worker then never sees
  // EOF and the suite deadlocks. dup2 clears the flag on the stdio
  // copies, so the child keeps exactly the three ends it needs.
  if (pipe2(In, O_CLOEXEC) != 0) {
    R.SpawnError = "pipe failed";
    return R;
  }
  if (pipe2(Out, O_CLOEXEC) != 0) {
    close(In[0]), close(In[1]);
    R.SpawnError = "pipe failed";
    return R;
  }
  if (pipe2(Err, O_CLOEXEC) != 0) {
    close(In[0]), close(In[1]), close(Out[0]), close(Out[1]);
    R.SpawnError = "pipe failed";
    return R;
  }

  // Built before fork: the child may only call async-signal-safe
  // functions, and vector growth allocates.
  std::vector<const char *> Argv;
  Argv.push_back(Exe.c_str());
  Argv.push_back("run-job");
  Argv.push_back("-");
  for (const std::string &A : ExtraArgs)
    Argv.push_back(A.c_str());
  Argv.push_back(nullptr);

  pid_t Pid = fork();
  if (Pid < 0) {
    for (int Fd : {In[0], In[1], Out[0], Out[1], Err[0], Err[1]})
      close(Fd);
    R.SpawnError = "fork failed";
    return R;
  }
  if (Pid == 0) {
    // Child: wire the pipes onto stdio and become the worker. The
    // originals are O_CLOEXEC, so exec drops them by itself. Resource
    // limits land here, between fork and exec, so they bind the worker
    // and everything it execs but never the driver; setrlimit is
    // async-signal-safe, the only kind of call allowed in this window.
    dup2(In[0], 0);
    dup2(Out[1], 1);
    dup2(Err[1], 2);
    if (Policy.MemLimitMb) {
      struct rlimit RL;
      RL.rlim_cur = RL.rlim_max =
          static_cast<rlim_t>(Policy.MemLimitMb) << 20;
      setrlimit(RLIMIT_AS, &RL);
    }
    if (Policy.CpuLimitSec) {
      // Soft limit delivers SIGXCPU (attributable); the hard limit two
      // seconds later is the SIGKILL backstop for a worker that traps
      // SIGXCPU and keeps burning.
      struct rlimit RL;
      RL.rlim_cur = Policy.CpuLimitSec;
      RL.rlim_max = static_cast<rlim_t>(Policy.CpuLimitSec) + 2;
      setrlimit(RLIMIT_CPU, &RL);
    }
    execv(Exe.c_str(), const_cast<char *const *>(Argv.data()));
    _exit(127); // exec failed; 127 is the shell convention.
  }

  close(In[0]), close(Out[1]), close(Err[1]);

  using Clock = std::chrono::steady_clock;
  const auto Start = Clock::now();
  auto LastActivity = Start;
  auto secondsFrom = [](Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double>(B - A).count();
  };
  // Escalating kill: once any deadline fires (or cancellation arrives)
  // the child gets SIGTERM, GraceSec to flush and exit, then SIGKILL.
  enum class Kill : uint8_t { None, Termed, Killed };
  Kill Stage = Kill::None;
  Clock::time_point GraceAt{};

  // Runs every supervision check, escalates the kill when due, and
  // returns the poll timeout in ms until the next interesting instant
  // (-1 = block forever, the unsupervised fast path).
  auto supervise = [&]() -> int {
    if (!Policy.supervised() && Stage == Kill::None)
      return -1;
    auto Now = Clock::now();
    if (Policy.Canceled && Policy.Canceled())
      R.Canceled = true;
    if (Stage == Kill::None) {
      bool Die = R.Canceled;
      if (Policy.TimeoutSec > 0 &&
          secondsFrom(Start, Now) >= Policy.TimeoutSec) {
        R.TimedOut = true;
        Die = true;
      } else if (Policy.StallSec > 0 &&
                 secondsFrom(LastActivity, Now) >= Policy.StallSec) {
        R.Stalled = true;
        Die = true;
      }
      if (Die) {
        kill(Pid, SIGTERM);
        Stage = Kill::Termed;
        GraceAt = Now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                std::max(0.05, Policy.GraceSec)));
      }
    } else if (Stage == Kill::Termed && Now >= GraceAt) {
      kill(Pid, SIGKILL);
      Stage = Kill::Killed;
    }
    // Wake at the nearest pending deadline, capped at a 250ms tick so
    // cooperative cancellation is noticed promptly even when no
    // deadline is near.
    double NextSec = 0.25;
    auto Consider = [&](double RemainSec) {
      NextSec = std::min(NextSec, std::max(RemainSec, 0.01));
    };
    if (Stage == Kill::None) {
      if (Policy.TimeoutSec > 0)
        Consider(Policy.TimeoutSec - secondsFrom(Start, Now));
      if (Policy.StallSec > 0)
        Consider(Policy.StallSec - secondsFrom(LastActivity, Now));
    } else if (Stage == Kill::Termed) {
      Consider(secondsFrom(Now, GraceAt));
    }
    return static_cast<int>(NextSec * 1000);
  };

  size_t Written = 0;
  bool WriteDone = false, OutDone = false, ErrDone = false;
  char Buf[4096];
  while (!WriteDone || !OutDone || !ErrDone) {
    struct pollfd Fds[3];
    int N = 0;
    int WriteIdx = -1, OutIdx = -1, ErrIdx = -1;
    if (!WriteDone) {
      WriteIdx = N;
      Fds[N++] = {In[1], POLLOUT, 0};
    }
    if (!OutDone) {
      OutIdx = N;
      Fds[N++] = {Out[0], POLLIN, 0};
    }
    if (!ErrDone) {
      ErrIdx = N;
      Fds[N++] = {Err[0], POLLIN, 0};
    }
    int PollRc = poll(Fds, static_cast<nfds_t>(N), supervise());
    if (PollRc < 0) {
      // EINTR is routine here: shutdown handlers install without
      // SA_RESTART precisely so a pending SIGINT/SIGTERM wakes this
      // poll immediately instead of waiting out the timeout.
      if (errno == EINTR)
        continue;
      break;
    }
    if (PollRc == 0)
      continue; // Deadline tick: loop to re-run supervision.
    if (WriteIdx >= 0 && (Fds[WriteIdx].revents & (POLLOUT | POLLERR))) {
      ssize_t W = write(In[1], SpecText.data() + Written,
                        SpecText.size() - Written);
      if (W > 0)
        Written += static_cast<size_t>(W);
      // EINTR is a retry, not end-of-stream: treating it as done would
      // truncate the spec and fail the job spuriously.
      if ((W < 0 && errno != EINTR) || Written == SpecText.size()) {
        close(In[1]);
        WriteDone = true;
      }
    }
    auto Drain = [&](int Idx, int Fd, std::string &Sink, bool &Done,
                     bool BoundedTail) {
      if (Idx < 0 || !(Fds[Idx].revents & (POLLIN | POLLHUP | POLLERR)))
        return false;
      ssize_t Got = read(Fd, Buf, sizeof(Buf));
      if (Got > 0) {
        // Any child output — report bytes, heartbeat lines, stderr
        // chatter — is proof of life for the stall detector.
        LastActivity = Clock::now();
        Sink.append(Buf, static_cast<size_t>(Got));
        if (BoundedTail)
          boundStderrTail(Sink);
        return true;
      }
      // EINTR on read is a retry (same rationale as the write path);
      // everything else, including EOF, ends this stream.
      if (!(Got < 0 && errno == EINTR)) {
        close(Fd);
        Done = true;
      }
      return false;
    };
    if (Drain(OutIdx, Out[0], R.Out, OutDone, false) && OnEvent) {
      // Peel complete event lines off as they arrive so heartbeats are
      // live; whatever does not parse as an event (the report) stays.
      size_t Nl;
      size_t Scan = 0;
      while ((Nl = R.Out.find('\n', Scan)) != std::string::npos) {
        std::string Line = R.Out.substr(Scan, Nl - Scan);
        Expected<Value> Doc = Value::parse(Line);
        if (Doc && Doc->isObject() && Doc->find("event")) {
          OnEvent(Doc.take());
          R.Out.erase(Scan, Nl - Scan + 1);
        } else {
          Scan = Nl + 1;
        }
      }
    }
    Drain(ErrIdx, Err[0], R.Err, ErrDone, true);
  }
  if (!WriteDone)
    close(In[1]);
  if (!OutDone)
    close(Out[0]);
  if (!ErrDone)
    close(Err[0]);

  int Status = 0;
  if (!Policy.supervised() && Stage == Kill::None) {
    // Unsupervised: pipes are closed, so the child is exiting; a
    // blocking wait is safe. EINTR retries (routine under shutdown
    // handlers installed without SA_RESTART).
    while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
      ;
  } else {
    // Supervised: a child can close its pipes yet linger (or trap
    // SIGTERM), so reap non-blockingly and keep the deadline/escalation
    // machinery running until it is truly gone — SIGKILL bounds this.
    for (;;) {
      pid_t W = waitpid(Pid, &Status, WNOHANG);
      if (W < 0 && errno == EINTR)
        continue;
      if (W != 0)
        break; // Reaped — or unexpectedly gone (ECHILD); either ends it.
      supervise();
      napMs(10);
    }
  }
  R.Seconds = secondsFrom(Start, Clock::now());
  R.SpawnOk = true;
  if (WIFSIGNALED(Status)) {
    R.Signaled = true;
    R.Signal = WTERMSIG(Status);
  } else {
    R.ExitCode = WEXITSTATUS(Status);
  }
  return R;
}

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

/// One trimmed line of worker stderr for a failure diagnostic.
std::string firstLine(const std::string &Text) {
  size_t End = Text.find('\n');
  return std::string(
      trim(End == std::string::npos ? Text : Text.substr(0, End)));
}

/// Allocation-failure markers in child stderr — the evidence that a
/// signal death under RLIMIT_AS was the memory limit, not a plain bug.
bool looksOutOfMemory(const std::string &Err) {
  return Err.find("bad_alloc") != std::string::npos ||
         Err.find("out of memory") != std::string::npos ||
         Err.find("Out of memory") != std::string::npos ||
         Err.find("Cannot allocate") != std::string::npos;
}

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

/// Sleeps up to \p Sec, polling \p Stop every ~20ms; returns false when
/// cut short by a stop request. Used for retry backoff and injected
/// driver delays — both must yield instantly to shutdown.
bool interruptibleSleep(double Sec, const std::function<bool()> &Stop) {
  auto End = std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(Sec));
  while (std::chrono::steady_clock::now() < End) {
    if (Stop && Stop())
      return false;
    napMs(20);
  }
  return true;
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

} // namespace

//===----------------------------------------------------------------------===//
// JobScheduler
//===----------------------------------------------------------------------===//

Expected<SuiteReport> JobScheduler::run() {
  using E = Expected<SuiteReport>;
  auto Clock0 = std::chrono::steady_clock::now();

  if (Opts.Resume && Opts.EventLog.empty())
    return E::error("suite: --resume needs an event log path");

  Expected<std::vector<SuiteJob>> Expanded =
      Suite.expand(Opts.ApplyEnvOverrides);
  if (!Expanded)
    return E::error(Expanded.error());
  std::vector<SuiteJob> &Jobs = *Expanded;

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

  if (Opts.Mode == SuiteMode::Dry) {
    Rep.Shards = std::max(1u, Opts.Shards);
    Rep.Seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Clock0)
                      .count();
    return Rep;
  }

  // -- Checkpoint: load finished records keyed by spec hash -------------
  std::map<std::string, Value> Done;
  if (Opts.Resume) {
    // A missing log is simply a fresh run; unreadable-but-present is
    // indistinguishable from missing at this layer, and either way the
    // suite re-executes everything (correct, just not incremental).
    if (Expected<std::vector<Value>> Events =
            json::readNdjsonFile(Opts.EventLog)) {
      for (const Value &Ev : *Events) {
        const Value *Kind = Ev.find("event");
        if (!Kind || Kind->asString() != "job_finished")
          continue;
        const Value *Id = Ev.find("job");
        const Value *Hash = Ev.find("spec_hash");
        const Value *Report = Ev.find("report");
        if (Id && Hash && Report && Id->asString() == Hash->asString())
          Done[Id->asString()] = *Report;
      }
    }
  }

  std::ofstream Log;
  if (!Opts.EventLog.empty()) {
    Log.open(Opts.EventLog, Opts.Resume ? std::ios::app : std::ios::trunc);
    if (!Log)
      return E::error("suite: cannot open event log '" + Opts.EventLog +
                      "'");
  }
  EventSink Sink(Log.is_open() ? &Log : nullptr, Opts.Progress);

  // Mark checkpoint-satisfied jobs before scheduling; a record that no
  // longer parses as a Report is dropped and the job re-runs.
  for (SuiteJob &Job : Jobs) {
    auto It = Done.find(Job.Id);
    if (It == Done.end())
      continue;
    Expected<Report> Stored = Report::fromJson(It->second);
    if (!Stored)
      continue;
    JobResult &JR = Rep.Results[Job.Index];
    JR.S = JobResult::State::Skipped;
    JR.R = Stored.take();
  }

  unsigned Pending = 0;
  for (const JobResult &JR : Rep.Results)
    Pending += JR.S == JobResult::State::Listed;

  unsigned Shards = Opts.Shards ? Opts.Shards
                                : std::max(1u,
                                           std::thread::hardware_concurrency());
  Shards = std::max(1u, std::min(Shards, std::max(1u, Pending)));
  Rep.Shards = Shards;

  std::string WorkerExe = Opts.WorkerExe;
  std::optional<ScopedIgnoreSigpipe> NoSigpipe;
  if (Opts.Mode == SuiteMode::Subprocess) {
    if (WorkerExe.empty())
      WorkerExe = selfExecutable();
    if (WorkerExe.empty())
      return E::error("suite: cannot resolve the worker executable "
                      "(pass SuiteRunOptions::WorkerExe)");
    NoSigpipe.emplace();
  }

  unsigned AlreadySkipped = static_cast<unsigned>(Jobs.size()) - Pending;
  Sink.event(Value::object()
                 .set("event", Value::string("suite_started"))
                 .set("suite", Value::string(Suite.Name))
                 .set("mode", Value::string(Rep.Mode))
                 .set("shards", Value::number(Shards))
                 .set("jobs", Value::number(static_cast<uint64_t>(Jobs.size())))
                 .set("resumed", Value::number(AlreadySkipped))
                 .set("build", support::buildInfoJson()));
  for (const SuiteJob &Job : Jobs)
    if (Rep.Results[Job.Index].S == JobResult::State::Skipped) {
      Sink.event(jobEvent("job_skipped", Job));
      Sink.progress("[" + Job.Id + "] " + Job.subject() +
                    ": skipped (checkpointed)");
    }

  // -- Progress heartbeats (LiveProgress only) ---------------------------
  // One publication path for both modes: a job_progress event into the
  // log plus a rewritten live status line.
  ProgressGate Gate;
  auto publishProgress = [&](const Value &Ev) {
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
        Num("evals_per_sec"),
        formatDoubleCompact(Num("best_w")).c_str()));
  };

  // Inprocess shards tap the SearchEngine directly; the tick's job tag
  // is the driver thread's (set around each job below).
  const bool Heartbeats =
      Opts.LiveProgress && Opts.Mode == SuiteMode::InProcess;
  if (Heartbeats)
    obs::setSearchListener([&](const obs::SearchTick &T) {
      if (T.Job.empty() ||
          !Gate.allow(T.Job, Opts.ProgressPeriodSec, T.Final))
        return;
      double Rate = T.Seconds > 0 ? T.Evals / T.Seconds : 0;
      publishProgress(
          Value::object()
              .set("event", Value::string("job_progress"))
              .set("job", Value::string(T.Job))
              .set("evals", Value::number(T.Evals))
              .set("best_w", Value::number(T.BestW))
              .set("evals_per_sec", Value::number(Rate))
              .set("starts_done", Value::number(T.StartsDone))
              .set("starts", Value::number(T.Starts)));
    });

  // -- Fault-tolerance policy --------------------------------------------
  // Per-job effective limits: suite/job "limits" (merged at expand) with
  // CLI/API overrides on top.
  auto effectiveLimits = [&](const SuiteJob &Job) {
    JobLimits L = Job.Limits;
    if (Opts.TimeoutSec)
      L.TimeoutSec = *Opts.TimeoutSec;
    if (Opts.StallTimeoutSec)
      L.StallTimeoutSec = *Opts.StallTimeoutSec;
    if (Opts.Retries)
      L.Retries = *Opts.Retries;
    if (Opts.BackoffSec)
      L.BackoffSec = *Opts.BackoffSec;
    if (Opts.MemLimitMb)
      L.MemLimitMb = *Opts.MemLimitMb;
    if (Opts.CpuLimitSec)
      L.CpuLimitSec = *Opts.CpuLimitSec;
    return L;
  };
  const unsigned MaxFailures =
      Opts.MaxFailures ? *Opts.MaxFailures : Suite.baseLimits().MaxFailures;

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

  // Graceful shutdown: handlers live exactly as long as the run.
  std::optional<ScopedSignalGuard> SigGuard;
  if (Opts.HandleSignals)
    SigGuard.emplace();
  std::atomic<bool> Abort{false}; // --max-failures fail-fast.
  auto stopRequested = [&] {
    return Abort.load(std::memory_order_relaxed) ||
           (SigGuard.has_value() &&
            GShutdown.load(std::memory_order_relaxed)) ||
           (Opts.StopFlag &&
            Opts.StopFlag->load(std::memory_order_relaxed));
  };
  std::atomic<unsigned> TerminalFailures{0};
  std::atomic<uint64_t> NRetries{0}, NTimeouts{0}, NStalls{0};

  // -- Execute -----------------------------------------------------------
  // RunJob is the whole per-job lifecycle (attempts, retries, terminal
  // event); the dispatch below only decides which shard calls it for
  // which index. Returns false when the shard should stop
  // dispatching (shutdown/fail-fast).
  auto RunJob = [&](size_t I) -> bool {
    {
      const SuiteJob &Job = Jobs[I];
      JobResult &JR = Rep.Results[I];
      if (JR.S == JobResult::State::Skipped)
        return true;
      if (stopRequested())
        return false; // Undispatched jobs stay Listed; marked after join.
      const JobLimits L = effectiveLimits(Job);
      Sink.event(jobEvent("job_started", Job));
      Sink.progress("[" + Job.Id + "] " + Job.subject() + ": started");

      obs::ScopedSpan JobSpan("job");
      if (obs::tracing())
        JobSpan.setArgs(
            Value::object()
                .set("job", Value::string(Job.Id))
                .set("task",
                     Value::string(taskKindName(Job.Spec.Task)))
                .set("subject", Value::string(Job.subject())));

      const unsigned MaxAttempts = 1 + L.Retries;
      for (unsigned Attempt = 1; Attempt <= MaxAttempts; ++Attempt) {
        // Driver-side injected delay ("sleep" fault) — a deterministic
        // window for shutdown tests in both scheduler modes.
        if (!FaultPlan.empty())
          if (std::optional<fault::Clause> C =
                  fault::actionFor(FaultPlan, Job.Index, Attempt);
              C && C->Action == "sleep")
            interruptibleSleep(C->Param > 0 ? C->Param : 3,
                               stopRequested);
        if (stopRequested()) {
          JR.S = JobResult::State::Interrupted;
          break;
        }

        JobAttempt A;
        A.Number = Attempt;
        if (Opts.Mode == SuiteMode::InProcess) {
          // Run from the canonical text, exactly like a subprocess
          // shard — mode identity holds by construction. Deadlines and
          // rlimits cannot act here (a thread cannot be killed safely);
          // retries and fail-fast still do.
          auto T0 = std::chrono::steady_clock::now();
          obs::setJobTag(Job.Id);
          Expected<AnalysisSpec> Spec =
              AnalysisSpec::parse(Job.CanonicalSpec);
          Expected<Report> R =
              Spec ? Analyzer::analyze(*Spec)
                   : Expected<Report>::error(Spec.error());
          obs::setJobTag("");
          A.Seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - T0)
                          .count();
          if (R) {
            A.Outcome = "ok";
            JR.S = JobResult::State::Executed;
            JR.R = R.take();
          } else {
            A.Outcome = "failed";
            A.Error = R.error();
          }
        } else {
          // A --progress-every child streams job_progress lines on
          // stdout; re-tag them with the job id (the child does not
          // know it) and publish. The child rate-limits, so no Gate
          // here. With stall detection but no live progress, the lines
          // are swallowed — the log keeps its historical vocabulary
          // and the raw bytes already served as the liveness signal.
          std::function<void(Value)> OnEvent;
          if (Opts.LiveProgress)
            OnEvent = [&, JobId = Job.Id](Value Ev) {
              const Value *Kind = Ev.find("event");
              if (!Kind || Kind->asString() != "job_progress")
                return;
              Ev.set("job", Value::string(JobId));
              publishProgress(Ev);
            };
          else if (L.StallTimeoutSec > 0)
            OnEvent = [](Value) {};

          std::vector<std::string> Args;
          // --progress-every=0 means every tick, so track "wanted" apart
          // from the period value.
          bool WantHeartbeat = Opts.LiveProgress || L.StallTimeoutSec > 0;
          double HeartbeatSec =
              Opts.LiveProgress ? Opts.ProgressPeriodSec : 0;
          if (L.StallTimeoutSec > 0 &&
              (!Opts.LiveProgress || HeartbeatSec > 0)) {
            // Heartbeats must land comfortably inside the stall window
            // or healthy jobs get killed. Note the engine ticks once
            // per completed start: size stall timeouts above the
            // longest expected single start.
            double StallBeat = std::max(0.2, L.StallTimeoutSec / 3);
            HeartbeatSec = Opts.LiveProgress
                               ? std::min(HeartbeatSec, StallBeat)
                               : StallBeat;
          }
          if (WantHeartbeat)
            Args.push_back(formatf("--progress-every=%g", HeartbeatSec));
          if (!FaultPlan.empty())
            Args.push_back(
                formatf("--fault-tag=%zu.%u", Job.Index, Attempt));

          SpawnPolicy P;
          P.TimeoutSec = L.TimeoutSec;
          P.StallSec = L.StallTimeoutSec;
          P.GraceSec = Opts.GraceSec;
          P.MemLimitMb = L.MemLimitMb;
          P.CpuLimitSec = L.CpuLimitSec;
          P.Canceled = stopRequested;
          WorkerRun W = spawnRunJob(WorkerExe, Job.CanonicalSpec + "\n",
                                    Args, OnEvent, P);
          A.Seconds = W.Seconds;
          A.StderrTail = std::string(trim(W.Err));
          if (W.Signaled) {
            A.Signal = W.Signal;
            A.SignalName = signalNameOr(W.Signal);
          }
          if (!W.SpawnOk) {
            A.Outcome = "failed";
            A.Error = "worker spawn: " + W.SpawnError;
          } else if (W.TimedOut) {
            A.Outcome = "timeout";
            A.Error =
                formatf("killed at %gs wall-clock deadline", L.TimeoutSec);
          } else if (W.Stalled) {
            A.Outcome = "stalled";
            A.Error = formatf("no output or heartbeat for %gs",
                              L.StallTimeoutSec);
          } else if (W.Canceled ||
                     (W.Signaled && stopRequested() &&
                      (W.Signal == SIGTERM || W.Signal == SIGINT ||
                       W.Signal == SIGKILL))) {
            // Children share the terminal's process group: a Ctrl-C
            // can reach the child before the driver's cancel tick
            // does. Either way this death is shutdown, not a failure.
            A.Outcome = "interrupted";
            A.Error = "suite shutdown";
          } else if (W.Signaled) {
            A.Outcome = "failed";
            A.Error = "worker killed by " + A.SignalName;
            // Resource-limit attribution: RLIMIT_CPU delivers SIGXCPU
            // (or its SIGKILL hard backstop); RLIMIT_AS shows up as an
            // allocation-failure abort.
            if (W.Signal == SIGXCPU ||
                (L.CpuLimitSec && W.Signal == SIGKILL))
              A.LimitHit = "cpu";
            else if (L.MemLimitMb &&
                     (W.Signal == SIGABRT || looksOutOfMemory(W.Err)))
              A.LimitHit = "mem";
            if (!A.LimitHit.empty())
              A.Error += " (" + A.LimitHit + " limit)";
          } else if (W.ExitCode > 1) {
            A.Outcome = "failed";
            A.ExitCode = W.ExitCode;
            std::string Diag = firstLine(W.Err);
            A.Error = "worker exit " + std::to_string(W.ExitCode) +
                      (Diag.empty() ? "" : ": " + Diag);
          } else {
            A.ExitCode = W.ExitCode;
            Expected<Report> R = Report::parse(W.Out);
            if (R) {
              A.Outcome = "ok";
              JR.S = JobResult::State::Executed;
              JR.R = R.take();
            } else {
              A.Outcome = "failed";
              A.Error = "worker report: " + R.error();
            }
          }
        }

        if (A.Outcome == "timeout") {
          NTimeouts.fetch_add(1, std::memory_order_relaxed);
          obs::count("suite.timeouts");
        } else if (A.Outcome == "stalled") {
          NStalls.fetch_add(1, std::memory_order_relaxed);
          obs::count("suite.stalled");
        }

        if (A.Outcome == "ok") {
          JR.Attempts.push_back(std::move(A));
          break;
        }
        if (A.Outcome == "interrupted") {
          JR.S = JobResult::State::Interrupted;
          JR.Attempts.push_back(std::move(A));
          break;
        }
        if (Attempt < MaxAttempts && !stopRequested()) {
          double Delay = backoffDelay(L.BackoffSec, Attempt, Job.Id);
          A.RetryDelaySec = Delay;
          Sink.event(jobEvent("job_retrying", Job)
                         .set("spec_hash", Value::string(Job.Id))
                         .set("attempt", Value::number(Attempt))
                         .set("reason", Value::string(A.Outcome))
                         .set("error", Value::string(A.Error))
                         .set("delay_sec", Value::number(Delay)));
          Sink.progress(
              "[" + Job.Id + "] " + Job.subject() +
              formatf(": attempt %u %s — retrying in %.2fs (%s)",
                      Attempt, A.Outcome.c_str(), Delay,
                      A.Error.c_str()));
          NRetries.fetch_add(1, std::memory_order_relaxed);
          obs::count("suite.retries");
          JR.Attempts.push_back(std::move(A));
          interruptibleSleep(Delay, stopRequested);
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

      // -- Publish the job's terminal event ----------------------------
      if (JR.S == JobResult::State::Executed) {
        Value ReportJson = JR.R.toJson();
        std::string ReportHash =
            fnv1a64Hex(deterministicReportJson(ReportJson).dump());
        Sink.event(jobEvent("job_finished", Job)
                       .set("spec_hash", Value::string(Job.Id))
                       .set("report_hash", Value::string(ReportHash))
                       .set("attempt",
                            Value::number(static_cast<uint64_t>(
                                JR.Attempts.size())))
                       .set("report", std::move(ReportJson)));
        Sink.progress(
            "[" + Job.Id + "] " + Job.subject() + ": done — " +
            std::to_string(JR.R.Findings.size()) + " finding(s), " +
            std::to_string(JR.R.Evals) + " evals, " +
            formatf("%.2fs", JR.R.Seconds));
      } else if (JR.S == JobResult::State::Quarantined) {
        obs::count("suite.quarantined");
        Value As = Value::array();
        for (const JobAttempt &QA : JR.Attempts)
          As.push(QA.toJson());
        Sink.event(jobEvent("job_quarantined", Job)
                       .set("spec_hash", Value::string(Job.Id))
                       .set("error", Value::string(JR.Error))
                       .set("attempts", std::move(As)));
        Sink.progress("[" + Job.Id + "] " + Job.subject() +
                      ": QUARANTINED after " +
                      std::to_string(JR.Attempts.size()) +
                      " attempt(s) — " + JR.Error);
      } else if (JR.S == JobResult::State::Failed) {
        Value Ev = jobEvent("job_failed", Job)
                       .set("spec_hash", Value::string(Job.Id))
                       .set("error", Value::string(JR.Error));
        if (!JR.Attempts.empty()) {
          // Debuggable from the log alone: how the worker died and
          // what it said last.
          const JobAttempt &FA = JR.Attempts.back();
          Ev.set("attempt", Value::number(FA.Number));
          if (FA.ExitCode >= 0)
            Ev.set("exit_code",
                   Value::number(static_cast<int64_t>(FA.ExitCode)));
          if (FA.Signal) {
            Ev.set("signal",
                   Value::number(static_cast<int64_t>(FA.Signal)));
            Ev.set("signal_name", Value::string(FA.SignalName));
          }
          if (!FA.LimitHit.empty())
            Ev.set("limit", Value::string(FA.LimitHit));
          if (!FA.StderrTail.empty())
            Ev.set("stderr_tail", Value::string(FA.StderrTail));
        }
        Sink.event(std::move(Ev));
        Sink.progress("[" + Job.Id + "] " + Job.subject() +
                      ": FAILED — " + JR.Error);
      } else if (JR.S == JobResult::State::Interrupted) {
        Sink.progress("[" + Job.Id + "] " + Job.subject() +
                      ": interrupted");
      }

      if (JR.S == JobResult::State::Failed ||
          JR.S == JobResult::State::Quarantined) {
        unsigned Total =
            TerminalFailures.fetch_add(1, std::memory_order_relaxed) + 1;
        if (MaxFailures && Total >= MaxFailures)
          Abort.store(true, std::memory_order_relaxed);
      }
    }
    return true;
  };

  // -- Dispatch ----------------------------------------------------------
  // Shards pop job indexes from one shared counter. Per-job Reports are
  // identical at any shard count: every worker executes the identical
  // canonical spec text, only which shard ran a job changes.
  std::atomic<size_t> Next{0};
  auto Worker = [&](unsigned Shard) {
    obs::setThreadTrackName(formatf("shard %u", Shard));
    for (size_t I = Next.fetch_add(1); I < Jobs.size();
         I = Next.fetch_add(1))
      if (!RunJob(I))
        break;
  };

  if (Shards == 1) {
    Worker(0); // Sequential on the caller's thread.
  } else {
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < Shards; ++T)
      Pool.emplace_back(Worker, T);
    for (std::thread &T : Pool)
      T.join();
  }
  if (Heartbeats)
    obs::clearSearchListener();
  Sink.closeLive();

  // Resolve why (whether) the run stopped early. Signal wins over
  // fail-fast: exit code 4 tells the caller the log is a resume
  // checkpoint, which is true either way, but the cause matters.
  if (SigGuard.has_value() && GShutdown.load(std::memory_order_relaxed))
    Rep.Stopped = "signal";
  else if (Opts.StopFlag && Opts.StopFlag->load(std::memory_order_relaxed))
    Rep.Stopped = "stopped";
  else if (Abort.load(std::memory_order_relaxed))
    Rep.Stopped = "max-failures";
  // Undispatched jobs of a stopped run are exactly the unfinished set a
  // --resume re-executes.
  if (!Rep.Stopped.empty())
    for (JobResult &JR : Rep.Results)
      if (JR.S == JobResult::State::Listed)
        JR.S = JobResult::State::Interrupted;
  Rep.Retries = NRetries.load(std::memory_order_relaxed);
  Rep.Timeouts = NTimeouts.load(std::memory_order_relaxed);
  Rep.Stalls = NStalls.load(std::memory_order_relaxed);

  // -- Aggregate in expansion order --------------------------------------
  for (const JobResult &JR : Rep.Results) {
    switch (JR.S) {
    case JobResult::State::Listed:
      break;
    case JobResult::State::Executed:
      ++Rep.Executed;
      break;
    case JobResult::State::Skipped:
      ++Rep.Skipped;
      break;
    case JobResult::State::Failed:
      ++Rep.Failed;
      break;
    case JobResult::State::Quarantined:
      ++Rep.Quarantined;
      break;
    case JobResult::State::Interrupted:
      ++Rep.Interrupted;
      break;
    }
    if (!JR.hasReport())
      continue;
    Rep.Succeeded += JR.R.Success;
    Rep.Findings += JR.R.Findings.size();
    Rep.Evals += JR.R.Evals;
    Rep.JobSeconds += JR.R.Seconds;

    const char *Task = taskKindName(JR.Spec.Task);
    auto It = std::find_if(Rep.PerTask.begin(), Rep.PerTask.end(),
                           [&](const SuiteReport::TaskStats &T) {
                             return T.Task == Task;
                           });
    if (It == Rep.PerTask.end()) {
      Rep.PerTask.push_back({});
      It = std::prev(Rep.PerTask.end());
      It->Task = Task;
    }
    ++It->Jobs;
    It->Succeeded += JR.R.Success;
    It->Findings += JR.R.Findings.size();
    It->Evals += JR.R.Evals;
    It->Seconds += JR.R.Seconds;
  }
  // Present tasks in canonical kind order, independent of finish order.
  std::sort(Rep.PerTask.begin(), Rep.PerTask.end(),
            [](const SuiteReport::TaskStats &A,
               const SuiteReport::TaskStats &B) {
              TaskKind KA = TaskKind::Boundary, KB = TaskKind::Boundary;
              taskKindByName(A.Task, KA);
              taskKindByName(B.Task, KB);
              return KA < KB;
            });

  Rep.Seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Clock0)
                    .count();

  Value DoneEv = Rep.toJson();
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
  for (const auto &[Key, V] : DoneEv.members())
    if (Key != "results")
      Trimmed.set(Key, V);
  Sink.event(Trimmed);
  return Rep;
}
