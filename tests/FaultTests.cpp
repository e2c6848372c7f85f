//===--- FaultTests.cpp - Suite fault-tolerance tests ---------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The fault-tolerance bar: every supervision path (deadline kill, stall
// detection, retry-then-success, crash-loop quarantine, RLIMIT kills,
// graceful shutdown + resume) exercised against *real* forked `wdm
// run-job` children dying in the way the WDM_FAULT harness tells them
// to — no mocks. Subprocess tests drive the real `wdm` binary
// (WDM_CLI_EXE, injected by CMake). The attempt classifier that reads
// how a child died is pure and tested here without a fork.
//
//===----------------------------------------------------------------------===//

#include "api/JobScheduler.h"
#include "api/SuiteReport.h"
#include "api/SuiteSpec.h"
#include "api/Worker.h"
#include "support/FaultInject.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

namespace {

/// RAII WDM_FAULT setter: tests must never leak a fault plan into each
/// other (or into child processes of later tests).
class ScopedFault {
public:
  explicit ScopedFault(const std::string &Spec) {
    setenv("WDM_FAULT", Spec.c_str(), 1);
  }
  ~ScopedFault() { unsetenv("WDM_FAULT"); }
  ScopedFault(const ScopedFault &) = delete;
  ScopedFault &operator=(const ScopedFault &) = delete;
};

std::string tempPath(const std::string &Stem) {
  return ::testing::TempDir() + "wdm_fault_" + std::to_string(getpid()) +
         "_" + Stem;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out) << Path;
  Out << Text;
}

std::string readFileText(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Fast deterministic two-job suite (fig2 boundary, two seeds); each
/// job runs in well under a second, so deadlines in the tests can be
/// generous multiples of healthy runtime.
SuiteSpec twoJobSuite() {
  Expected<SuiteSpec> Suite = SuiteSpec::parse(R"({
    "suite": "fault",
    "defaults": {"search": {"max_evals": 20000, "threads": 1}},
    "matrix": {
      "subjects": ["fig2"],
      "tasks": ["boundary"],
      "seed_base": 60, "seed_count": 2
    }
  })");
  EXPECT_TRUE(Suite.hasValue()) << Suite.error();
  return Suite.take();
}

bool underAddressSanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

//===----------------------------------------------------------------------===//
// WDM_FAULT grammar
//===----------------------------------------------------------------------===//

TEST(FaultSpecTest, GrammarAcceptsAndRejects) {
  auto Plan = fault::parse("crash@job:3");
  ASSERT_TRUE(Plan.hasValue()) << Plan.error();
  ASSERT_EQ(Plan->size(), 1u);
  EXPECT_EQ((*Plan)[0].Action, "crash");
  EXPECT_EQ((*Plan)[0].JobIndex, 3u);
  EXPECT_EQ((*Plan)[0].Attempt, 1u); // default: first attempt only

  Plan = fault::parse("slow-heartbeat:7.5@job:0#*, oom:32@job:2#3; "
                      "sleep@job:1");
  ASSERT_TRUE(Plan.hasValue()) << Plan.error();
  ASSERT_EQ(Plan->size(), 3u);
  EXPECT_EQ((*Plan)[0].Action, "slow-heartbeat");
  EXPECT_DOUBLE_EQ((*Plan)[0].Param, 7.5);
  EXPECT_EQ((*Plan)[0].Attempt, 0u); // '#*' = every attempt
  EXPECT_EQ((*Plan)[1].Attempt, 3u);
  EXPECT_EQ((*Plan)[2].Action, "sleep");

  // Matching: attempt selector and '*' wildcard.
  EXPECT_TRUE((*Plan)[0].matches(0, 1));
  EXPECT_TRUE((*Plan)[0].matches(0, 4));
  EXPECT_FALSE((*Plan)[0].matches(1, 1));
  EXPECT_TRUE((*Plan)[1].matches(2, 3));
  EXPECT_FALSE((*Plan)[1].matches(2, 1));
  EXPECT_TRUE(fault::actionFor(*Plan, 1, 1).has_value());
  EXPECT_FALSE(fault::actionFor(*Plan, 1, 2).has_value()); // default #1
  EXPECT_FALSE(fault::actionFor(*Plan, 5, 1).has_value());

  // A typo'd plan must fail loudly, not inject nothing.
  for (const char *Bad : {"crash", "crash@3", "frobnicate@job:0",
                          "crash@job:x", "crash@job:0#y", "crash@job:",
                          "oom:banana@job:0", ""})
    EXPECT_FALSE(fault::parse(Bad).hasValue()) << Bad;
}

//===----------------------------------------------------------------------===//
// The "limits" policy block: parsing, merge precedence, job identity
//===----------------------------------------------------------------------===//

TEST(JobLimitsTest, ParseRoundTripAndPrecedence) {
  Expected<SuiteSpec> Suite = SuiteSpec::parse(R"({
    "suite": "lims",
    "limits": {"timeout_sec": 30, "retries": 2, "mem_limit_mb": 512},
    "defaults": {"search": {"max_evals": 100, "threads": 1}},
    "jobs": [
      {"task": "boundary", "module": {"builtin": "fig2"}},
      {"task": "boundary", "module": {"builtin": "fig2"},
       "search": {"seed": 9},
       "limits": {"timeout_sec": 5, "cpu_limit_sec": 10}}
    ]
  })");
  ASSERT_TRUE(Suite.hasValue()) << Suite.error();
  Expected<std::vector<SuiteJob>> Jobs = Suite->expand();
  ASSERT_TRUE(Jobs.hasValue()) << Jobs.error();
  ASSERT_EQ(Jobs->size(), 2u);

  // Suite-level limits apply to every job; a job block deep-merges over
  // them (field-wise, not wholesale replacement).
  const JobLimits &A = (*Jobs)[0].Limits;
  EXPECT_DOUBLE_EQ(A.TimeoutSec, 30);
  EXPECT_EQ(A.Retries, 2u);
  EXPECT_EQ(A.MemLimitMb, 512u);
  const JobLimits &B = (*Jobs)[1].Limits;
  EXPECT_DOUBLE_EQ(B.TimeoutSec, 5); // job override wins
  EXPECT_EQ(B.CpuLimitSec, 10u);     // job-only addition
  EXPECT_EQ(B.Retries, 2u);          // suite default survives
  EXPECT_EQ(B.MemLimitMb, 512u);

  EXPECT_DOUBLE_EQ(Suite->baseLimits().TimeoutSec, 30);

  // Limits are supervision policy, not analysis work: they must not
  // change content-addressed job identity, or resume logs written
  // before a limits tweak would silently re-execute everything.
  Expected<SuiteSpec> NoLims = SuiteSpec::parse(R"({
    "suite": "lims",
    "defaults": {"search": {"max_evals": 100, "threads": 1}},
    "jobs": [
      {"task": "boundary", "module": {"builtin": "fig2"}},
      {"task": "boundary", "module": {"builtin": "fig2"},
       "search": {"seed": 9}}
    ]
  })");
  ASSERT_TRUE(NoLims.hasValue()) << NoLims.error();
  Expected<std::vector<SuiteJob>> NoLimsJobs = NoLims->expand();
  ASSERT_TRUE(NoLimsJobs.hasValue()) << NoLimsJobs.error();
  EXPECT_EQ((*Jobs)[0].Id, (*NoLimsJobs)[0].Id);
  EXPECT_EQ((*Jobs)[1].Id, (*NoLimsJobs)[1].Id);

  // toJson/fromJson fixed point preserves the limits block.
  Expected<SuiteSpec> Re = SuiteSpec::fromJson(Suite->toJson());
  ASSERT_TRUE(Re.hasValue()) << Re.error();
  EXPECT_EQ(Re->toJson().dump(), Suite->toJson().dump());
  Expected<std::vector<SuiteJob>> ReJobs = Re->expand();
  ASSERT_TRUE(ReJobs.hasValue()) << ReJobs.error();
  EXPECT_DOUBLE_EQ((*ReJobs)[1].Limits.TimeoutSec, 5);

  // Strictness: unknown keys and negative values are spec errors.
  EXPECT_FALSE(SuiteSpec::parse(
                   R"({"suite": "s", "limits": {"timeout": 3},
                       "jobs": [{"task": "boundary",
                                 "module": {"builtin": "fig2"}}]})")
                   .hasValue());
  EXPECT_FALSE(SuiteSpec::parse(
                   R"({"suite": "s", "limits": {"retries": -1},
                       "jobs": [{"task": "boundary",
                                 "module": {"builtin": "fig2"}}]})")
                   .hasValue());
}

//===----------------------------------------------------------------------===//
// The attempt classifier (pure: no fork)
//===----------------------------------------------------------------------===//

WorkerRun exitedWith(int Code, const std::string &Out = "",
                     const std::string &Err = "") {
  WorkerRun W;
  W.SpawnOk = true;
  W.ExitCode = Code;
  W.Out = Out;
  W.Err = Err;
  return W;
}

WorkerRun killedBy(int Sig, const std::string &Err = "") {
  WorkerRun W = exitedWith(0, "", Err);
  W.Signaled = true;
  W.Signal = Sig;
  return W;
}

TEST(ClassifyTest, SpawnFailureTimeoutAndStall) {
  JobLimits L;
  L.TimeoutSec = 5;
  L.StallTimeoutSec = 3;
  Report Out;
  WorkerRun NoSpawn;
  NoSpawn.SpawnError = "fork failed";
  JobAttempt A = classify(NoSpawn, L, false, Out);
  EXPECT_EQ(A.Outcome, "failed");
  EXPECT_EQ(A.Error, "worker spawn: fork failed");

  // Timeout wins over stall; the kill signal is still recorded.
  WorkerRun Both = killedBy(SIGKILL);
  Both.TimedOut = Both.Stalled = true;
  A = classify(Both, L, false, Out);
  EXPECT_EQ(A.Outcome, "timeout");
  EXPECT_EQ(A.Error, "killed at 5s wall-clock deadline");
  EXPECT_EQ(A.SignalName, "SIGKILL");
  EXPECT_EQ(A.LimitHit, "");

  WorkerRun Stalled = killedBy(SIGTERM);
  Stalled.Stalled = true;
  A = classify(Stalled, L, false, Out);
  EXPECT_EQ(A.Outcome, "stalled");
  EXPECT_EQ(A.Error, "no output or heartbeat for 3s");
}

TEST(ClassifyTest, ShutdownDeathsAreInterrupted) {
  JobLimits L;
  Report Out;
  WorkerRun Canceled = exitedWith(0);
  Canceled.Canceled = true;
  EXPECT_EQ(classify(Canceled, L, false, Out).Outcome, "interrupted");
  for (int Sig : {SIGTERM, SIGINT, SIGKILL}) {
    JobAttempt A = classify(killedBy(Sig), L, /*Stopping=*/true, Out);
    EXPECT_EQ(A.Outcome, "interrupted") << Sig;
    EXPECT_EQ(A.Error, "suite shutdown");
    // Without a stop request the same death is a plain failure.
    EXPECT_EQ(classify(killedBy(Sig), L, false, Out).Outcome, "failed");
  }
  // A crash during shutdown is still a crash.
  EXPECT_EQ(classify(killedBy(SIGSEGV), L, true, Out).Outcome, "failed");
}

TEST(ClassifyTest, ResourceLimitAttribution) {
  JobLimits None, Cpu, Mem;
  Cpu.CpuLimitSec = 1;
  Mem.MemLimitMb = 64;
  Report Out;

  JobAttempt A = classify(killedBy(SIGXCPU), None, false, Out);
  EXPECT_EQ(A.Outcome, "failed");
  EXPECT_EQ(A.LimitHit, "cpu");
  EXPECT_EQ(A.Error, "worker killed by SIGXCPU (cpu limit)");
  // SIGKILL is the RLIMIT_CPU hard backstop only under a cpu limit.
  EXPECT_EQ(classify(killedBy(SIGKILL), Cpu, false, Out).LimitHit, "cpu");
  EXPECT_EQ(classify(killedBy(SIGKILL), None, false, Out).LimitHit, "");

  A = classify(killedBy(SIGABRT), Mem, false, Out);
  EXPECT_EQ(A.LimitHit, "mem");
  EXPECT_EQ(A.Error, "worker killed by SIGABRT (mem limit)");
  EXPECT_EQ(classify(killedBy(SIGSEGV, "std::bad_alloc"), Mem, false, Out)
                .LimitHit,
            "mem");
  A = classify(killedBy(SIGABRT), None, false, Out);
  EXPECT_EQ(A.LimitHit, "");
  EXPECT_EQ(A.Error, "worker killed by SIGABRT");
  EXPECT_EQ(A.Signal, SIGABRT);
}

TEST(ClassifyTest, ExitCodesAndTheReportLine) {
  JobLimits L;
  Report Out;
  Out.Evals = 42;
  JobAttempt A = classify(exitedWith(3, "", "  boom\nmore\n"), L, false, Out);
  EXPECT_EQ(A.Outcome, "failed");
  EXPECT_EQ(A.ExitCode, 3);
  EXPECT_EQ(A.Error, "worker exit 3: boom");
  EXPECT_EQ(A.StderrTail, "boom\nmore");
  EXPECT_EQ(classify(exitedWith(2), L, false, Out).Error, "worker exit 2");

  for (int Code : {0, 1}) {
    A = classify(exitedWith(Code, "not a report"), L, false, Out);
    EXPECT_EQ(A.Outcome, "failed");
    EXPECT_EQ(A.ExitCode, Code);
    EXPECT_EQ(A.Error.rfind("worker report: ", 0), 0u) << A.Error;
  }
  EXPECT_EQ(Out.Evals, 42u); // untouched by failed attempts

  Report Child;
  Child.Evals = 9;
  A = classify(exitedWith(1, Child.toJson().dump() + "\n"), L, false, Out);
  EXPECT_EQ(A.Outcome, "ok");
  EXPECT_EQ(A.ExitCode, 1);
  EXPECT_EQ(Out.Evals, 9u);
}

TEST(ClassifyTest, SignalNamesComeFromLibc) {
  EXPECT_EQ(signalName(SIGKILL), "SIGKILL");
  EXPECT_EQ(signalName(SIGUSR1), "SIGUSR1");
  EXPECT_EQ(signalName(0), "signal 0");
  EXPECT_EQ(signalName(SIGRTMIN + 1),
            "signal " + std::to_string(SIGRTMIN + 1));
}

//===----------------------------------------------------------------------===//
// Driver-level policies that act in both scheduler modes
//===----------------------------------------------------------------------===//

TEST(FaultTest, InprocessRetryCountsAndMaxFailuresAbort) {
  // A job whose module cannot load fails deterministically in both
  // modes; retries burn down and the job is quarantined (it had a
  // retry budget), and --max-failures=1 stops dispatch of later jobs.
  SuiteSpec Suite;
  {
    Expected<SuiteSpec> S = SuiteSpec::parse(R"({
      "suite": "maxfail",
      "defaults": {"search": {"max_evals": 100, "threads": 1}},
      "jobs": [
        {"task": "boundary", "module": {"file": "/nonexistent/a.wir"}},
        {"task": "boundary", "module": {"builtin": "fig2"},
         "search": {"seed": 1}},
        {"task": "boundary", "module": {"builtin": "fig2"},
         "search": {"seed": 2}}
      ]
    })");
    ASSERT_TRUE(S.hasValue()) << S.error();
    Suite = S.take();
  }

  SuiteRunOptions Opts;
  Opts.Shards = 1; // deterministic dispatch order
  Opts.Retries = 1;
  Opts.BackoffSec = 0.01;
  Opts.MaxFailures = 1;
  Expected<SuiteReport> R = JobScheduler::execute(Suite, Opts);
  ASSERT_TRUE(R.hasValue()) << R.error();

  EXPECT_EQ(R->Quarantined, 1u);
  EXPECT_EQ(R->Retries, 1u);
  EXPECT_EQ(R->Stopped, "max-failures");
  EXPECT_EQ(R->Executed + R->Interrupted, 2u);
  EXPECT_GE(R->Interrupted, 1u); // fail-fast spared at least one job
  EXPECT_EQ(R->Results[0].S, JobResult::State::Quarantined);
  ASSERT_EQ(R->Results[0].Attempts.size(), 2u);
  EXPECT_EQ(R->Results[0].Attempts[0].Outcome, "failed");
  EXPECT_GT(R->Results[0].Attempts[0].RetryDelaySec, 0.0);
  EXPECT_EQ(R->exitCode(), 3); // quarantine = failure, not interrupt
}

#ifdef WDM_CLI_EXE

//===----------------------------------------------------------------------===//
// Real dying children: deadline, stall, crash loop, rlimit
//===----------------------------------------------------------------------===//

SuiteRunOptions subprocessOpts() {
  SuiteRunOptions Opts;
  Opts.Mode = SuiteMode::Subprocess;
  Opts.Shards = 2;
  Opts.WorkerExe = WDM_CLI_EXE;
  return Opts;
}

TEST(FaultTest, HungJobKilledAtDeadlineAndRetried) {
  // Attempt 1 of job 0 ignores SIGTERM and sleeps forever: the driver
  // must walk the full SIGTERM -> grace -> SIGKILL escalation, record a
  // timeout, back off, and succeed on attempt 2.
  ScopedFault Fault("hang@job:0#1");
  SuiteRunOptions Opts = subprocessOpts();
  Opts.TimeoutSec = 1.5;
  Opts.GraceSec = 0.2;
  Opts.Retries = 1;
  Opts.BackoffSec = 0.01;
  Expected<SuiteReport> R = JobScheduler::execute(twoJobSuite(), Opts);
  ASSERT_TRUE(R.hasValue()) << R.error();

  EXPECT_EQ(R->Executed, 2u);
  EXPECT_EQ(R->Failed, 0u);
  EXPECT_EQ(R->Timeouts, 1u);
  EXPECT_EQ(R->Retries, 1u);
  const JobResult &J = R->Results[0];
  ASSERT_EQ(J.Attempts.size(), 2u);
  EXPECT_EQ(J.Attempts[0].Outcome, "timeout");
  EXPECT_NE(J.Attempts[0].Error.find("wall-clock deadline"),
            std::string::npos)
      << J.Attempts[0].Error;
  EXPECT_GE(J.Attempts[0].Seconds, 1.4);
  EXPECT_EQ(J.Attempts[1].Outcome, "ok");
  EXPECT_EQ(R->exitCode(), 1); // recovered: findings only
}

TEST(FaultTest, StalledWorkerDetectedByMissedHeartbeats) {
  // Attempt 1 of job 0 goes silent for 10s; with a 1.2s stall window
  // the liveness detector (fed by the child's auto-enabled heartbeats)
  // must kill it long before any wall deadline, then retry to success.
  ScopedFault Fault("slow-heartbeat:10@job:0#1");
  SuiteRunOptions Opts = subprocessOpts();
  Opts.StallTimeoutSec = 1.2;
  Opts.Retries = 1;
  Opts.BackoffSec = 0.01;
  Expected<SuiteReport> R = JobScheduler::execute(twoJobSuite(), Opts);
  ASSERT_TRUE(R.hasValue()) << R.error();

  EXPECT_EQ(R->Executed, 2u);
  EXPECT_EQ(R->Stalls, 1u);
  const JobResult &J = R->Results[0];
  ASSERT_EQ(J.Attempts.size(), 2u);
  EXPECT_EQ(J.Attempts[0].Outcome, "stalled");
  EXPECT_LT(J.Attempts[0].Seconds, 8.0); // killed well before the 10s nap
  EXPECT_EQ(J.Attempts[1].Outcome, "ok");
}

TEST(FaultTest, CrashLoopQuarantinedWithFullAttemptHistory) {
  // Job 0 SIGABRTs on *every* attempt: retries burn down, the job is
  // quarantined with its complete attempt history, and the rest of the
  // suite still runs — one crash-looping job cannot take down a study.
  ScopedFault Fault("crash@job:0#*");
  std::string LogPath = tempPath("quarantine.ndjson");
  SuiteRunOptions Opts = subprocessOpts();
  Opts.Retries = 2;
  Opts.BackoffSec = 0.01;
  Opts.EventLog = LogPath;
  Expected<SuiteReport> R = JobScheduler::execute(twoJobSuite(), Opts);
  ASSERT_TRUE(R.hasValue()) << R.error();

  EXPECT_EQ(R->Quarantined, 1u);
  EXPECT_EQ(R->Executed, 1u);
  EXPECT_EQ(R->Retries, 2u);
  EXPECT_EQ(R->exitCode(), 3);
  const JobResult &J = R->Results[0];
  EXPECT_EQ(J.S, JobResult::State::Quarantined);
  ASSERT_EQ(J.Attempts.size(), 3u);
  for (const JobAttempt &A : J.Attempts) {
    EXPECT_EQ(A.Outcome, "failed");
    EXPECT_EQ(A.Signal, SIGABRT);
    EXPECT_EQ(A.SignalName, "SIGABRT");
  }

  // Event-log vocabulary: job_retrying per backoff, one job_quarantined
  // carrying the attempt array, and the attempt history in the final
  // report JSON.
  auto Events = json::readNdjsonFile(LogPath);
  ASSERT_TRUE(Events.hasValue()) << Events.error();
  unsigned Retrying = 0, Quarantined = 0;
  for (const Value &Ev : *Events) {
    const std::string Kind = Ev.find("event")->asString();
    if (Kind == "job_retrying") {
      ++Retrying;
      EXPECT_NE(Ev.find("attempt"), nullptr);
      EXPECT_NE(Ev.find("delay_sec"), nullptr);
      EXPECT_EQ(Ev.find("reason")->asString(), "failed");
    } else if (Kind == "job_quarantined") {
      ++Quarantined;
      ASSERT_NE(Ev.find("attempts"), nullptr);
      EXPECT_EQ(Ev.find("attempts")->size(), 3u);
      EXPECT_EQ(Ev.find("spec_hash")->asString(), J.Id);
    }
  }
  EXPECT_EQ(Retrying, 2u);
  EXPECT_EQ(Quarantined, 1u);
  Value Doc = R->toJson();
  const Value &First = Doc.find("results")->at(0);
  ASSERT_NE(First.find("attempts"), nullptr);
  EXPECT_EQ(First.find("attempts")->size(), 3u);
  std::remove(LogPath.c_str());
}

TEST(FaultTest, OomKilledByRlimitWithDecodedReason) {
  // RLIMIT_AS makes the shadow-memory reservation of ASan fail at
  // startup, so this path is only testable in plain builds (CI's
  // sanitizer job skips it; the matrix job runs it).
  if (underAddressSanitizer())
    GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow memory";

  // Attempt 1 of job 0 allocates until the 512 MiB RLIMIT_AS cap
  // aborts it; the classifier must attribute the death to the memory
  // limit and the retry (same limit, no fault) must succeed.
  ScopedFault Fault("oom@job:0#1");
  SuiteRunOptions Opts = subprocessOpts();
  Opts.MemLimitMb = 512;
  Opts.Retries = 1;
  Opts.BackoffSec = 0.01;
  Expected<SuiteReport> R = JobScheduler::execute(twoJobSuite(), Opts);
  ASSERT_TRUE(R.hasValue()) << R.error();

  EXPECT_EQ(R->Executed, 2u);
  const JobResult &J = R->Results[0];
  ASSERT_EQ(J.Attempts.size(), 2u);
  EXPECT_EQ(J.Attempts[0].Outcome, "failed");
  EXPECT_EQ(J.Attempts[0].LimitHit, "mem");
  EXPECT_NE(J.Attempts[0].StderrTail.find("bad_alloc"),
            std::string::npos)
      << J.Attempts[0].StderrTail;
  EXPECT_NE(J.Attempts[0].Error.find("mem limit"), std::string::npos)
      << J.Attempts[0].Error;
  EXPECT_EQ(J.Attempts[1].Outcome, "ok");
}

//===----------------------------------------------------------------------===//
// Graceful shutdown + resume (both scheduler modes, via the real CLI)
//===----------------------------------------------------------------------===//

int runCli(const std::string &Args) {
  std::string Cmd = std::string(WDM_CLI_EXE) + " " + Args +
                    " > /dev/null 2> /dev/null";
  int Status = std::system(Cmd.c_str());
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Forks a `wdm suite run` driver (with WDM_FAULT set for it and its
/// children), SIGTERMs it after \p KillAfterSec, and returns its exit
/// code. `exec` in the shell line keeps the driver as the direct child
/// so the signal reaches the wdm process, not an intermediate sh.
int runDriverAndInterrupt(const std::string &Fault,
                          const std::string &Args, double KillAfterSec) {
  std::string Cmd = "exec " + std::string(WDM_CLI_EXE) + " " + Args +
                    " > /dev/null 2>&1";
  pid_t Pid = fork();
  if (Pid == 0) {
    setenv("WDM_FAULT", Fault.c_str(), 1);
    execl("/bin/sh", "sh", "-c", Cmd.c_str(),
          static_cast<char *>(nullptr));
    _exit(127);
  }
  usleep(static_cast<useconds_t>(KillAfterSec * 1e6));
  kill(Pid, SIGTERM);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// job id -> deterministic per-job summary from a suite report JSON.
std::map<std::string, std::string>
jobSummaries(const std::string &ReportPath) {
  std::map<std::string, std::string> Out;
  auto Doc = Value::parse(readFileText(ReportPath));
  EXPECT_TRUE(Doc.hasValue()) << Doc.error();
  if (!Doc)
    return Out;
  const Value *Rs = Doc->find("results");
  for (size_t I = 0; I < Rs->size(); ++I) {
    const Value &J = Rs->at(I);
    if (!J.find("success"))
      continue; // no report (should not happen in these tests)
    std::ostringstream Key;
    Key << J.find("success")->asBool() << "/"
        << J.find("findings")->asUint() << "/"
        << J.find("evals")->asUint();
    Out[J.find("job")->asString()] = Key.str();
  }
  return Out;
}

void interruptAndResume(const std::string &Mode,
                        const std::string &Fault) {
  std::string SuitePath = tempPath("int_" + Mode + ".json");
  std::string LogPath = tempPath("int_" + Mode + ".ndjson");
  std::string OutPath = tempPath("int_" + Mode + ".report.json");
  std::string RefPath = tempPath("int_" + Mode + ".ref.json");
  writeFile(SuitePath,
            R"({"suite": "int", "defaults": {
                 "search": {"max_evals": 20000, "threads": 1}},
                "matrix": {"subjects": ["fig2"], "tasks": ["boundary"],
                           "seed_base": 70, "seed_count": 3}})");

  // Sequential driver, job 1 blocked by the fault: job 0 checkpoints,
  // jobs 1..2 do not. SIGTERM must produce exit code 4 and a log that
  // is a valid resume checkpoint.
  int Ec = runDriverAndInterrupt(
      Fault,
      "suite run " + SuitePath + " --mode=" + Mode +
          " --shards=1 --grace=0.2 --ndjson " + LogPath,
      1.5);
  EXPECT_EQ(Ec, 4) << Mode;

  auto Events = json::readNdjsonFile(LogPath);
  ASSERT_TRUE(Events.hasValue()) << Events.error();
  unsigned Finished = 0, Interrupted = 0;
  for (const Value &Ev : *Events) {
    const std::string Kind = Ev.find("event")->asString();
    if (Kind == "job_finished")
      ++Finished;
    else if (Kind == "suite_interrupted") {
      ++Interrupted;
      EXPECT_EQ(Ev.find("reason")->asString(), "signal");
    }
    EXPECT_NE(Kind, "suite_done");
  }
  EXPECT_EQ(Finished, 1u) << Mode;
  EXPECT_EQ(Interrupted, 1u) << Mode;

  // Resume (fault cleared) executes exactly the unfinished jobs...
  EXPECT_EQ(runCli("suite run " + SuitePath + " --mode=" + Mode +
                   " --resume --ndjson " + LogPath + " --json " +
                   OutPath),
            1);
  auto Doc = Value::parse(readFileText(OutPath));
  ASSERT_TRUE(Doc.hasValue()) << Doc.error();
  EXPECT_EQ(Doc->find("executed")->asUint(), 2u) << Mode;
  EXPECT_EQ(Doc->find("skipped")->asUint(), 1u) << Mode;

  // ...and its deterministic per-job results match an uninterrupted
  // run byte-for-byte.
  EXPECT_EQ(runCli("suite run " + SuitePath + " --mode=" + Mode +
                   " --json " + RefPath),
            1);
  EXPECT_EQ(jobSummaries(OutPath), jobSummaries(RefPath)) << Mode;

  for (const std::string &P : {SuitePath, LogPath, OutPath, RefPath})
    std::remove(P.c_str());
}

TEST(FaultTest, InterruptedSubprocessSuiteResumes) {
  // hang on every attempt: the child ignores SIGTERM, so shutdown also
  // exercises the driver's kill escalation on the way out.
  interruptAndResume("subprocess", "hang@job:1#*");
}

TEST(FaultTest, InterruptedInprocessSuiteResumes) {
  // Threads cannot be killed: the driver-side sleep fault opens the
  // shutdown window before job 1 is dispatched.
  interruptAndResume("inprocess", "sleep:30@job:1#*");
}

#endif // WDM_CLI_EXE

} // namespace
