//===--- SuiteReport.cpp - Aggregate result of a suite run ------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "api/SuiteReport.h"

#include <array>

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

json::Value JobAttempt::toJson() const {
  Value A = Value::object();
  A.set("attempt", Value::number(Number));
  A.set("outcome", Value::string(Outcome));
  if (!Error.empty())
    A.set("error", Value::string(Error));
  if (ExitCode >= 0)
    A.set("exit_code", Value::number(static_cast<int64_t>(ExitCode)));
  if (Signal) {
    A.set("signal", Value::number(static_cast<int64_t>(Signal)));
    A.set("signal_name", Value::string(SignalName));
  }
  if (!LimitHit.empty())
    A.set("limit", Value::string(LimitHit));
  if (!StderrTail.empty())
    A.set("stderr_tail", Value::string(StderrTail));
  A.set("seconds", Value::number(Seconds));
  if (RetryDelaySec > 0)
    A.set("retry_delay_sec", Value::number(RetryDelaySec));
  return A;
}

const char *JobResult::stateName() const {
  switch (S) {
  case State::Listed:
    return "listed";
  case State::Executed:
    return "executed";
  case State::Skipped:
    return "skipped";
  case State::Failed:
    return "failed";
  case State::Quarantined:
    return "quarantined";
  case State::Interrupted:
    return "interrupted";
  }
  return "?";
}

void SuiteReport::tally() {
  // Indexed by TaskKind, so PerTask comes out in canonical kind order
  // whatever order the jobs finished in.
  std::array<TaskStats, static_cast<size_t>(TaskKind::FpSat) + 1> ByKind;
  for (const JobResult &JR : Results) {
    Executed += JR.S == JobResult::State::Executed;
    Skipped += JR.S == JobResult::State::Skipped;
    Failed += JR.S == JobResult::State::Failed;
    Quarantined += JR.S == JobResult::State::Quarantined;
    Interrupted += JR.S == JobResult::State::Interrupted;
    if (!JR.hasReport())
      continue;
    Succeeded += JR.R.Success;
    Findings += JR.R.Findings.size();
    Evals += JR.R.Evals;
    JobSeconds += JR.R.Seconds;
    TaskStats &T = ByKind[static_cast<size_t>(JR.Spec.Task)];
    ++T.Jobs;
    T.Succeeded += JR.R.Success;
    T.Findings += JR.R.Findings.size();
    T.Evals += JR.R.Evals;
    T.Seconds += JR.R.Seconds;
  }
  for (size_t K = 0; K < ByKind.size(); ++K)
    if (ByKind[K].Jobs) {
      ByKind[K].Task = taskKindName(static_cast<TaskKind>(K));
      PerTask.push_back(std::move(ByKind[K]));
    }
}

int SuiteReport::exitCode() const {
  // "signal" (CLI SIGINT/SIGTERM) and "stopped" (an embedded driver's
  // StopFlag, e.g. the serve daemon draining) are both graceful
  // interruptions; "max-failures" stays in the failure class below.
  if (Stopped == "signal" || Stopped == "stopped")
    return 4;
  if (Failed || Quarantined)
    return 3;
  return Findings ? 1 : 0;
}

json::Value SuiteReport::toJson(bool WithResults) const {
  Value Doc = Value::object();
  if (!Suite.empty())
    Doc.set("suite", Value::string(Suite));
  Doc.set("mode", Value::string(Mode));
  Doc.set("shards", Value::number(Shards));
  Doc.set("jobs", Value::number(Jobs));
  Doc.set("executed", Value::number(Executed));
  Doc.set("skipped", Value::number(Skipped));
  Doc.set("failed", Value::number(Failed));
  Doc.set("quarantined", Value::number(Quarantined));
  Doc.set("interrupted", Value::number(Interrupted));
  Doc.set("succeeded", Value::number(Succeeded));
  Doc.set("findings", Value::number(Findings));
  Doc.set("evals", Value::number(Evals));
  Doc.set("retries", Value::number(Retries));
  Doc.set("timeouts", Value::number(Timeouts));
  Doc.set("stalls", Value::number(Stalls));
  Doc.set("seconds", Value::number(Seconds));
  Doc.set("job_seconds", Value::number(JobSeconds));
  if (!Stopped.empty())
    Doc.set("stopped", Value::string(Stopped));

  Value Tasks = Value::array();
  for (const TaskStats &T : PerTask)
    Tasks.push(Value::object()
                   .set("task", Value::string(T.Task))
                   .set("jobs", Value::number(T.Jobs))
                   .set("succeeded", Value::number(T.Succeeded))
                   .set("findings", Value::number(T.Findings))
                   .set("evals", Value::number(T.Evals))
                   .set("seconds", Value::number(T.Seconds)));
  Doc.set("per_task", std::move(Tasks));
  if (!WithResults)
    return Doc;

  Value Rs = Value::array();
  for (const JobResult &J : Results) {
    Value Item = Value::object();
    Item.set("job", Value::string(J.Id));
    Item.set("index", Value::number(static_cast<uint64_t>(J.Index)));
    Item.set("task", Value::string(taskKindName(J.Spec.Task)));
    Item.set("subject", Value::string(subjectText(J.Spec)));
    Item.set("state", Value::string(J.stateName()));
    if (J.hasReport()) {
      Item.set("success", Value::boolean(J.R.Success));
      Item.set("findings",
               Value::number(static_cast<uint64_t>(J.R.Findings.size())));
      Item.set("evals", Value::number(J.R.Evals));
      Item.set("seconds", Value::number(J.R.Seconds));
    }
    if (!J.Error.empty())
      Item.set("error", Value::string(J.Error));
    // Attempt histories only when supervision had something to say —
    // the common all-ok single-attempt case stays compact.
    bool Interesting = J.Attempts.size() > 1;
    for (const JobAttempt &A : J.Attempts)
      Interesting = Interesting || A.Outcome != "ok";
    if (Interesting) {
      Value As = Value::array();
      for (const JobAttempt &A : J.Attempts)
        As.push(A.toJson());
      Item.set("attempts", std::move(As));
    }
    Rs.push(std::move(Item));
  }
  Doc.set("results", std::move(Rs));
  return Doc;
}

std::string SuiteReport::toJsonText() const {
  return toJson().dump() + "\n";
}
