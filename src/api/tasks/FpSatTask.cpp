//===--- FpSatTask.cpp - Instance 5 (XSat) adapter ---------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "api/tasks/Tasks.h"
#include "sat/SExprParser.h"
#include "sat/Solver.h"

using namespace wdm;
using namespace wdm::api;
using wdm::json::Value;

Expected<Report> wdm::api::runFpSat(TaskContext &Ctx) {
  using E = Expected<Report>;
  Expected<sat::CNF> C = sat::parseConstraint(Ctx.Spec.Constraint);
  if (!C)
    return E::error("constraint parse error: " + C.error());

  sat::XSatSolver Solver;
  sat::XSatSolver::Options Opts;
  if (Ctx.Spec.SatMetric == "abs")
    Opts.Metric = sat::DistanceMetric::Absolute;
  Opts.Reduce = Ctx.searchOptions(Opts.Reduce);
  sat::SatResult R = Solver.solve(*C, Opts);

  Report Rep;
  Rep.Function = C->toString();
  Rep.Success = R.Sat;
  Rep.Evals = R.Evals;
  // The CNF weak distance is compiled into the binary already; the
  // engine field is accepted for uniformity but changes nothing here.
  Rep.Engine = "native";
  Rep.WStar = R.Sat ? 0.0 : R.WStar;
  if (R.Sat) {
    Finding F;
    F.Kind = "sat-model";
    F.Input = R.Model;
    Value Vars = Value::array();
    for (unsigned I = 0; I < C->NumVars; ++I)
      Vars.push(Value::string(C->VarNames[I]));
    F.Details = Value::object().set("vars", Vars);
    Rep.Findings.push_back(std::move(F));
  }
  return Rep;
}
