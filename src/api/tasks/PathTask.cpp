//===--- PathTask.cpp - Instance 2 adapter -----------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "analyses/PathReachability.h"
#include "api/tasks/Common.h"
#include "ir/Instruction.h"

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

namespace {

/// The prepared state: the validated path (instruction pointers into the
/// entry's module), the pre-pass plan, the legs it proved infeasible,
/// and — when none is — the instrumented reachability analysis (which
/// owns lowered bytecode/JIT code).
struct PreparedPath {
  tasks::PrunePlan Plan;
  instr::PathSpec PS;
  std::vector<size_t> DeadLegs;
  std::unique_ptr<analyses::PathReachability> PR;
};

Status preparePath(const TaskContext &Ctx, PreparedPath &P) {
  // Spec legs name branches by condbr index in layout order.
  std::vector<const ir::Instruction *> Branches;
  Ctx.F->forEachInst([&](const ir::Instruction *I) {
    if (I->opcode() == ir::Opcode::CondBr)
      Branches.push_back(I);
  });
  for (const PathLegSpec &Leg : Ctx.Spec.Path) {
    if (Leg.Branch >= Branches.size())
      return Status::error("spec: path leg names branch #" +
                           std::to_string(Leg.Branch) + " but '" +
                           Ctx.F->name() + "' has " +
                           std::to_string(Branches.size()) +
                           " conditional branches");
    P.PS.Legs.push_back({Branches[Leg.Branch], Leg.Taken});
  }

  // Static pre-pass: a required direction proved infeasible means no
  // input follows the path — the search is skipped outright.
  P.Plan = tasks::planPrune(Ctx);
  if (P.Plan.ran() && P.Plan.FA->complete()) {
    P.Plan.SitesTotal = static_cast<unsigned>(P.PS.Legs.size());
    for (size_t K = 0; K < P.PS.Legs.size(); ++K)
      if (!P.Plan.FA->edgeFeasible(P.PS.Legs[K].Branch,
                                   P.PS.Legs[K].DesiredTaken))
        P.DeadLegs.push_back(K);
  }
  if (P.DeadLegs.empty())
    P.PR = std::make_unique<analyses::PathReachability>(*Ctx.M, *Ctx.F, P.PS,
                                                        Ctx.engineKind());
  return Status::success();
}

} // namespace

Expected<Report> wdm::api::runPath(TaskContext &Ctx) {
  Expected<PreparedPath *> Prep = tasks::prepared<PreparedPath>(
      Ctx, [&](PreparedPath &P) { return preparePath(Ctx, P); });
  if (!Prep)
    return Expected<Report>::error(Prep.error());
  PreparedPath &P = **Prep;

  Report Rep;
  if (!P.DeadLegs.empty()) {
    tasks::fillStatic(Ctx, Rep, P.Plan, {});
    for (size_t K : P.DeadLegs) {
      StaticItem It;
      It.Kind = "unreachable";
      It.SiteId = static_cast<int>(Ctx.Spec.Path[K].Branch);
      It.Description = "path leg #" + std::to_string(K) + " (branch " +
                       std::to_string(Ctx.Spec.Path[K].Branch) + ", " +
                       (Ctx.Spec.Path[K].Taken ? "true" : "false") +
                       ") is statically infeasible";
      Rep.Static.Items.push_back(std::move(It));
      ++Rep.Static.SitesPruned;
    }
    Rep.Engine = "static";
    return Rep;
  }

  core::SearchOptions Opts = Ctx.searchOptions({});
  tasks::BoxShrink Box =
      tasks::shrinkBox(P.Plan, *Ctx.F, Opts.StartLo, Opts.StartHi,
                       [&](const absint::FunctionAnalysis &FA) {
                         if (!FA.complete())
                           return true;
                         for (const instr::PathLeg &Leg : P.PS.Legs)
                           if (!FA.edgeFeasible(Leg.Branch, Leg.DesiredTaken))
                             return false;
                         return true;
                       });
  core::SearchResult R = P.PR->findOne(Ctx.primaryBackend(), Opts);

  Rep.Success = R.Found;
  tasks::fillStatic(Ctx, Rep, P.Plan, Box);
  tasks::fillAggregates(Rep, R);
  tasks::fillEngine(Rep, P.PR->executionTier());
  if (R.Found) {
    Finding F;
    F.Kind = "path";
    F.Input = R.Witness;
    Value Legs = Value::array();
    for (const PathLegSpec &Leg : Ctx.Spec.Path)
      Legs.push(Value::object()
                    .set("branch", Value::number(Leg.Branch))
                    .set("taken", Value::boolean(Leg.Taken)));
    F.Details = Value::object().set("legs", Legs);
    Rep.Findings.push_back(std::move(F));
  }
  return Rep;
}
