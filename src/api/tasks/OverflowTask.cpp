//===--- OverflowTask.cpp - Instance 3 (fpod) adapter ------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "api/tasks/Common.h"

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

Expected<Report> wdm::api::runOverflow(TaskContext &Ctx) {
  Expected<tasks::PreparedOverflow *> P =
      tasks::prepareOverflow(Ctx, instr::OverflowMetric::UlpGap);
  if (!P)
    return Expected<Report>::error(P.error());

  Report Rep;
  analyses::OverflowReport R = tasks::searchOverflow(Ctx, **P, Rep);
  Rep.Success = R.numOverflows() > 0;
  Rep.Extra = Value::object()
                  .set("num_ops", Value::number(R.NumOps))
                  .set("num_overflows", Value::number(R.numOverflows()))
                  .set("evals_to_first_finding",
                       Value::number(R.EvalsToFirstFinding));
  return Rep;
}
