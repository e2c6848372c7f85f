//===--- InconsistencyTask.cpp - Section 6.3 study adapter -------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full Section 6.3 workflow as one task: run Algorithm 3 (fpod),
/// replay every found overflow input (plus any spec probes) through the
/// GSL status check, and report each distinct inconsistency — a run with
/// GSL_SUCCESS yet non-finite val/err — with its classified root cause.
/// This is the task the Table 3/5 benches and the GSL study drive.
///
//===----------------------------------------------------------------------===//

#include "analyses/Inconsistency.h"
#include "api/tasks/Common.h"

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

Expected<Report> wdm::api::runInconsistency(TaskContext &Ctx) {
  using E = Expected<Report>;
  if (!Ctx.Slots.Val || !Ctx.Slots.Err)
    return E::error("inconsistency task needs the subject's val/err "
                    "result globals (a GSL builtin, or val_global/"
                    "err_global naming globals of the module)");

  // Paper-faithful Table 3/5 configuration by default: Algorithm 3's
  // MAX - |a| metric (the ULP-gap improvement is an explicit opt-in).
  Expected<tasks::PreparedOverflow *> P =
      tasks::prepareOverflow(Ctx, instr::OverflowMetric::AbsGap);
  if (!P)
    return E::error(P.error());
  Report Rep;
  analyses::OverflowReport R = tasks::searchOverflow(Ctx, **P, Rep);

  gsl::SfFunction Fn;
  Fn.F = Ctx.F;
  Fn.Result = Ctx.Slots;
  analyses::InconsistencyChecker Checker(*Ctx.M, Fn);

  std::vector<analyses::InconsistencyFinding> Replays;
  for (const analyses::OverflowFinding &F : R.Findings)
    if (F.Found)
      Replays.push_back(Checker.check(F.Input));
  for (const std::vector<double> &Probe : Ctx.Spec.Probes)
    Replays.push_back(Checker.check(Probe));

  // One row per problematic location (Table 5): dedupe by origin.
  std::vector<const analyses::InconsistencyFinding *> Distinct;
  for (const analyses::InconsistencyFinding &F : Replays) {
    if (!F.Inconsistent)
      continue;
    bool Seen = false;
    for (const analyses::InconsistencyFinding *D : Distinct)
      Seen |= D->Origin == F.Origin;
    if (!Seen)
      Distinct.push_back(&F);
  }

  Rep.Success = !Distinct.empty();
  unsigned Bugs = 0;
  for (const analyses::InconsistencyFinding *D : Distinct) {
    Finding Item;
    Item.Kind = "inconsistency";
    Item.Input = D->Input;
    Item.Description = D->OriginText;
    Item.Details =
        Value::object()
            .set("status", Value::number(static_cast<int64_t>(D->Status)))
            .set("val", Value::number(D->Val))
            .set("err", Value::number(D->Err))
            .set("root_cause", Value::string(D->RootCause))
            .set("bug", Value::boolean(D->LooksLikeBug));
    Rep.Findings.push_back(std::move(Item));
    Bugs += D->LooksLikeBug;
  }
  Rep.Extra = Value::object()
                  .set("num_ops", Value::number(R.NumOps))
                  .set("num_overflows", Value::number(R.numOverflows()))
                  .set("inconsistencies",
                       Value::number(static_cast<uint64_t>(Distinct.size())))
                  .set("bugs", Value::number(Bugs))
                  .set("detector_seconds", Value::number(R.Seconds))
                  .set("evals_to_first_finding",
                       Value::number(R.EvalsToFirstFinding));
  return Rep;
}
