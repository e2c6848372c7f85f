//===--- Worker.cpp - One supervised `wdm run-job` attempt ----------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "api/Worker.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
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

namespace {

/// Child stderr is kept as a bounded tail: a crash-looping worker can
/// write arbitrarily much, and only the last few KiB ever reach a
/// diagnostic. Trimmed in hysteresis steps so appends stay amortized.
constexpr size_t StderrTailBytes = 4096;
constexpr size_t StderrTrimAt = 2 * StderrTailBytes;

void boundStderrTail(std::string &Err) {
  if (Err.size() > StderrTrimAt)
    Err.erase(0, Err.size() - StderrTailBytes);
}

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

} // namespace

WorkerRun wdm::api::spawnRunJob(const std::string &Exe,
                                const std::string &SpecText,
                                const std::vector<std::string> &ExtraArgs,
                                const std::function<void(Value)> &OnEvent,
                                const JobLimits &L, double GraceSec,
                                const std::function<bool()> &Canceled) {
  WorkerRun R;
  int In[2] = {-1, -1}, Out[2] = {-1, -1}, Err[2] = {-1, -1};
  auto closeAll = [&] {
    for (int Fd : {In[0], In[1], Out[0], Out[1], Err[0], Err[1]})
      if (Fd >= 0)
        close(Fd);
  };
  // O_CLOEXEC is load-bearing: shard threads fork concurrently, and a
  // plain pipe fd inherited into a *sibling's* child would keep that
  // sibling's stdin open past our close() — its worker then never sees
  // EOF and the suite deadlocks. dup2 clears the flag on the stdio
  // copies, so the child keeps exactly the three ends it needs.
  if (pipe2(In, O_CLOEXEC) != 0 || pipe2(Out, O_CLOEXEC) != 0 ||
      pipe2(Err, O_CLOEXEC) != 0) {
    closeAll();
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
    closeAll();
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
    if (L.MemLimitMb) {
      struct rlimit RL;
      RL.rlim_cur = RL.rlim_max = static_cast<rlim_t>(L.MemLimitMb) << 20;
      setrlimit(RLIMIT_AS, &RL);
    }
    if (L.CpuLimitSec) {
      // Soft limit delivers SIGXCPU (attributable); the hard limit two
      // seconds later is the SIGKILL backstop for a worker that traps
      // SIGXCPU and keeps burning.
      struct rlimit RL;
      RL.rlim_cur = L.CpuLimitSec;
      RL.rlim_max = static_cast<rlim_t>(L.CpuLimitSec) + 2;
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
  // returns the poll timeout in ms until the next interesting instant.
  auto supervise = [&]() -> int {
    auto Now = Clock::now();
    if (Canceled())
      R.Canceled = true;
    if (Stage == Kill::None) {
      bool Die = R.Canceled;
      if (L.TimeoutSec > 0 && secondsFrom(Start, Now) >= L.TimeoutSec) {
        R.TimedOut = true;
        Die = true;
      } else if (L.StallTimeoutSec > 0 &&
                 secondsFrom(LastActivity, Now) >= L.StallTimeoutSec) {
        R.Stalled = true;
        Die = true;
      }
      if (Die) {
        kill(Pid, SIGTERM);
        Stage = Kill::Termed;
        GraceAt = Now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                std::max(0.05, GraceSec)));
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
      if (L.TimeoutSec > 0)
        Consider(L.TimeoutSec - secondsFrom(Start, Now));
      if (L.StallTimeoutSec > 0)
        Consider(L.StallTimeoutSec - secondsFrom(LastActivity, Now));
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

  // A child can close its pipes yet linger (or trap SIGTERM), so reap
  // non-blockingly and keep the deadline/escalation machinery running
  // until it is truly gone — SIGKILL bounds this.
  int Status = 0;
  for (;;) {
    pid_t W = waitpid(Pid, &Status, WNOHANG);
    if (W < 0 && errno == EINTR)
      continue;
    if (W != 0)
      break; // Reaped — or unexpectedly gone (ECHILD); either ends it.
    supervise();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
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

std::string wdm::api::signalName(int Sig) {
  if (const char *Abbrev = sigabbrev_np(Sig))
    return std::string("SIG") + Abbrev;
  return "signal " + std::to_string(Sig);
}

JobAttempt wdm::api::classify(const WorkerRun &W, const JobLimits &L,
                              bool Stopping, Report &Out) {
  JobAttempt A;
  A.Seconds = W.Seconds;
  A.StderrTail = std::string(trim(W.Err));
  if (W.Signaled) {
    A.Signal = W.Signal;
    A.SignalName = signalName(W.Signal);
  }
  if (!W.SpawnOk) {
    A.Outcome = "failed";
    A.Error = "worker spawn: " + W.SpawnError;
  } else if (W.TimedOut) {
    A.Outcome = "timeout";
    A.Error = formatf("killed at %gs wall-clock deadline", L.TimeoutSec);
  } else if (W.Stalled) {
    A.Outcome = "stalled";
    A.Error = formatf("no output or heartbeat for %gs", L.StallTimeoutSec);
  } else if (W.Canceled ||
             (W.Signaled && Stopping &&
              (W.Signal == SIGTERM || W.Signal == SIGINT ||
               W.Signal == SIGKILL))) {
    // Children share the terminal's process group: a Ctrl-C can reach
    // the child before the driver's cancel tick does. Either way this
    // death is shutdown, not a failure.
    A.Outcome = "interrupted";
    A.Error = "suite shutdown";
  } else if (W.Signaled) {
    A.Outcome = "failed";
    A.Error = "worker killed by " + A.SignalName;
    // Resource-limit attribution: RLIMIT_CPU delivers SIGXCPU (or its
    // SIGKILL hard backstop); RLIMIT_AS shows up as an
    // allocation-failure abort.
    if (W.Signal == SIGXCPU || (L.CpuLimitSec && W.Signal == SIGKILL))
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
      Out = R.take();
    } else {
      A.Outcome = "failed";
      A.Error = "worker report: " + R.error();
    }
  }
  return A;
}
