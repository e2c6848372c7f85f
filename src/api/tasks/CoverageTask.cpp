//===--- CoverageTask.cpp - Instance 4 adapter -------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/BranchCoverage.h"
#include "api/tasks/Common.h"

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

namespace {

/// The prepared state: the instrumented coverage driver (re-runnable —
/// each run starts from an empty covered set) and the pre-pass plan.
struct PreparedCoverage {
  tasks::PrunePlan Plan;
  std::unique_ptr<analyses::BranchCoverage> Cov;
};

} // namespace

Expected<Report> wdm::api::runCoverage(TaskContext &Ctx) {
  Expected<PreparedCoverage *> P =
      tasks::prepared<PreparedCoverage>(Ctx, [&](PreparedCoverage &S) {
        S.Cov = std::make_unique<analyses::BranchCoverage>(*Ctx.M, *Ctx.F,
                                                           Ctx.engineKind());
        S.Plan = tasks::planPrune(Ctx);
        tasks::classifySites(S.Plan, S.Cov->sites());
        return Status::success();
      });
  if (!P)
    return Expected<Report>::error(P.error());
  tasks::PrunePlan &Plan = (*P)->Plan;
  analyses::BranchCoverage &Cov = *(*P)->Cov;

  analyses::BranchCoverage::Options Opts;
  Opts.Reduce = Ctx.searchOptions(Opts.Reduce);
  if (Ctx.Spec.MaxStall)
    Opts.MaxStall = *Ctx.Spec.MaxStall;
  Opts.ExcludedDirs = tasks::droppedSorted(Plan);
  tasks::BoxShrink Box = tasks::shrinkBox(
      Plan, *Ctx.F, Opts.Reduce.StartLo, Opts.Reduce.StartHi, Cov.sites());

  analyses::CoverageReport R = Cov.run(Ctx.primaryBackend(), Opts);

  Report Rep;
  tasks::fillStatic(Ctx, Rep, Plan, Box);
  Rep.Success = R.Total == R.Covered;
  Rep.Evals = R.Evals;
  tasks::fillEngine(Rep, Cov.executionTier());
  Rep.ThreadsUsed =
      Opts.Reduce.Threads
          ? Opts.Reduce.Threads
          : std::max(1u, std::thread::hardware_concurrency());
  for (const std::vector<double> &Input : R.TestInputs) {
    Finding F;
    F.Kind = "coverage-test";
    F.Input = Input;
    Value Dirs = Value::array();
    for (int Id : Cov.directionsTaken(Input))
      Dirs.push(Value::number(static_cast<int64_t>(Id)));
    F.Details = Value::object().set("directions", Dirs);
    Rep.Findings.push_back(std::move(F));
  }
  Rep.Extra = Value::object()
                  .set("covered", Value::number(R.Covered))
                  .set("total", Value::number(R.Total))
                  .set("ratio", Value::number(R.ratio()));
  return Rep;
}
