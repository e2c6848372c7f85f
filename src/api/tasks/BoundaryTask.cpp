//===--- BoundaryTask.cpp - Instance 1 adapter -------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/BoundaryAnalysis.h"
#include "api/tasks/Common.h"

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

namespace {

/// The prepared state: the instrumented analysis (clones, bytecode, JIT
/// code) and the pre-pass plan it was built against. findOne is
/// re-runnable — each run mints fresh thread-local evaluators.
struct PreparedBoundary {
  tasks::PrunePlan Plan;
  std::unique_ptr<analyses::BoundaryAnalysis> BVA;
};

} // namespace

Expected<Report> wdm::api::runBoundary(TaskContext &Ctx) {
  Expected<PreparedBoundary *> P =
      tasks::prepared<PreparedBoundary>(Ctx, [&](PreparedBoundary &S) {
        instr::BoundaryForm Form = instr::BoundaryForm::Product;
        if (Ctx.Spec.BoundaryForm == "min")
          Form = instr::BoundaryForm::Min;
        else if (Ctx.Spec.BoundaryForm == "minulp")
          Form = instr::BoundaryForm::MinUlp;
        S.Plan = tasks::planPrune(Ctx);
        S.BVA = std::make_unique<analyses::BoundaryAnalysis>(
            *Ctx.M, *Ctx.F, Form, Ctx.engineKind(),
            tasks::skipPredicate(S.Plan));
        tasks::classifySites(S.Plan, S.BVA->sites());
        return Status::success();
      });
  if (!P)
    return Expected<Report>::error(P.error());
  tasks::PrunePlan &Plan = (*P)->Plan;
  analyses::BoundaryAnalysis &BVA = *(*P)->BVA;

  core::SearchOptions Opts = Ctx.searchOptions({});
  tasks::BoxShrink Box =
      tasks::shrinkBox(Plan, *Ctx.F, Opts.StartLo, Opts.StartHi, BVA.sites());
  core::SearchResult R = BVA.findOne(Ctx.primaryBackend(), Opts);

  Report Rep;
  Rep.Success = R.Found;
  tasks::fillStatic(Ctx, Rep, Plan, Box);
  tasks::fillAggregates(Rep, R);
  tasks::fillEngine(Rep, BVA.executionTier());
  if (R.Found) {
    Finding F;
    F.Kind = "boundary";
    F.Input = R.Witness;
    Value Sites = Value::array();
    for (int Id : BVA.hitsFor(R.Witness)) {
      Sites.push(Value::number(static_cast<int64_t>(Id)));
      if (const instr::Site *S = BVA.sites().byId(Id)) {
        if (F.SiteId < 0) {
          F.SiteId = Id;
          F.Description = S->Description;
        }
      }
    }
    F.Details = Value::object().set("sites", Sites);
    Rep.Findings.push_back(std::move(F));
  }
  return Rep;
}
