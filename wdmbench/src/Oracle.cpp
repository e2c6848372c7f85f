//===--- Oracle.cpp - Correctness checks not taken from the tier under test ===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "Common.h"

#include "analyses/BoundaryAnalysis.h"
#include "analyses/BranchCoverage.h"
#include "analyses/Inconsistency.h"
#include "analyses/OverflowDetector.h"
#include "api/Analyzer.h"
#include "api/Subjects.h"
#include "ir/Parser.h"
#include "sat/SExprParser.h"

using namespace wdmbench;
using namespace wdm;
using wdm::json::Value;

/// One interpreter-tier replay setup per (task, subject): its own module,
/// instrumented exactly as the task adapter instruments it, so site ids
/// line up with the report's.
struct WitnessOracle::Checker {
  std::string Error; ///< Set when the subject could not be rebuilt.
  std::unique_ptr<ir::Module> M;
  ir::Function *F = nullptr;
  /// InconsistencyChecker keeps a reference to this.
  gsl::SfFunction Sf;
  std::unique_ptr<analyses::OverflowDetector> Overflow;
  std::unique_ptr<analyses::InconsistencyChecker> Inconsistency;
  std::unique_ptr<analyses::BoundaryAnalysis> Boundary;
  std::unique_ptr<analyses::BranchCoverage> Coverage;
  std::unique_ptr<sat::CNF> Cnf;
};

WitnessOracle::WitnessOracle() = default;
WitnessOracle::~WitnessOracle() = default;

WitnessOracle::Checker &
WitnessOracle::checkerFor(const api::AnalysisSpec &Spec) {
  std::string Key = std::string(api::taskKindName(Spec.Task)) + "\x1f" +
                    api::subjectText(Spec) + "\x1f" + Spec.Function + "\x1f" +
                    Spec.BoundaryForm;
  std::unique_ptr<Checker> &Slot = Cache[Key];
  if (Slot)
    return *Slot;
  Slot = std::make_unique<Checker>();
  Checker &C = *Slot;
  constexpr vm::EngineKind Interp = vm::EngineKind::Interp;

  if (Spec.Task == api::TaskKind::FpSat) {
    Expected<sat::CNF> Cnf = sat::parseConstraint(Spec.Constraint);
    if (Cnf)
      C.Cnf = std::make_unique<sat::CNF>(Cnf.take());
    else
      C.Error = Cnf.error();
    return C;
  }

  if (Spec.Module.K == api::ModuleSource::Kind::Builtin) {
    C.M = std::make_unique<ir::Module>();
    Expected<api::BuiltinSubject> S =
        api::buildBuiltinSubject(*C.M, Spec.Module.Text);
    if (!S) {
      C.Error = S.error();
      return C;
    }
    C.F = S->F;
    C.Sf.Result = S->Result;
  } else if (Spec.Module.K == api::ModuleSource::Kind::Inline) {
    Expected<std::unique_ptr<ir::Module>> M =
        ir::parseModule(Spec.Module.Text);
    if (!M) {
      C.Error = M.error();
      return C;
    }
    C.M = M.take();
    C.F = Spec.Function.empty() ? C.M->function(0)
                                : C.M->functionByName(Spec.Function);
  }
  if (!C.F) {
    C.Error = "subject function not found";
    return C;
  }

  switch (Spec.Task) {
  case api::TaskKind::Overflow:
    C.Overflow = std::make_unique<analyses::OverflowDetector>(
        *C.M, *C.F, instr::OverflowMetric::UlpGap, Interp);
    break;
  case api::TaskKind::Inconsistency:
    // Same order as the task adapter: detector first, then the checker.
    C.Overflow = std::make_unique<analyses::OverflowDetector>(
        *C.M, *C.F, instr::OverflowMetric::AbsGap, Interp);
    C.Sf.F = C.F;
    C.Inconsistency =
        std::make_unique<analyses::InconsistencyChecker>(*C.M, C.Sf);
    break;
  case api::TaskKind::Boundary: {
    instr::BoundaryForm Form = instr::BoundaryForm::Product;
    if (Spec.BoundaryForm == "min")
      Form = instr::BoundaryForm::Min;
    else if (Spec.BoundaryForm == "minulp")
      Form = instr::BoundaryForm::MinUlp;
    C.Boundary =
        std::make_unique<analyses::BoundaryAnalysis>(*C.M, *C.F, Form, Interp);
    break;
  }
  case api::TaskKind::Coverage:
    C.Coverage = std::make_unique<analyses::BranchCoverage>(*C.M, *C.F, Interp);
    break;
  default:
    break;
  }
  return C;
}

std::vector<std::string> WitnessOracle::check(const api::AnalysisSpec &Spec,
                                              const api::Report &R) {
  std::vector<std::string> Bad;
  if (R.Findings.empty())
    return Bad;
  Checker &C = checkerFor(Spec);
  std::string Where =
      std::string(api::taskKindName(Spec.Task)) + " " +
      (Spec.Module.K == api::ModuleSource::Kind::Builtin ? Spec.Module.Text
                                                         : R.Function);
  if (!C.Error.empty()) {
    Bad.push_back(Where + ": cannot rebuild subject: " + C.Error);
    return Bad;
  }
  for (const api::Finding &F : R.Findings) {
    bool Ok = true;
    double T0 = nowS();
    if (F.Kind == "overflow" && C.Overflow) {
      Ok = C.Overflow->overflowsAt(F.SiteId, F.Input);
    } else if (F.Kind == "inconsistency" && C.Inconsistency) {
      analyses::InconsistencyFinding I = C.Inconsistency->check(F.Input);
      Ok = I.Inconsistent && I.OriginText == F.Description;
    } else if (F.Kind == "boundary" && C.Boundary) {
      std::set<int> Hits = C.Boundary->hitsFor(F.Input);
      Ok = F.SiteId < 0 ? !Hits.empty() : Hits.count(F.SiteId) != 0;
    } else if (F.Kind == "coverage-test" && C.Coverage) {
      std::vector<int> Dirs = C.Coverage->directionsTaken(F.Input);
      const Value *Want = F.Details.find("directions");
      Ok = Want && Want->size() == Dirs.size();
      for (size_t I = 0; Ok && I < Dirs.size(); ++I)
        Ok = Want->at(I).asInt() == Dirs[I];
    } else if (F.Kind == "sat-model" && C.Cnf) {
      Ok = C.Cnf->satisfiedBy(F.Input);
    } else {
      continue; // Kinds without an interpreter replay (path legs).
    }
    ReplayS += nowS() - T0;
    ++Checked;
    if (!Ok)
      Bad.push_back(Where + ": " + F.Kind + " witness not confirmed by the "
                                            "interpreter (" +
                    F.Description + ")");
  }
  return Bad;
}

namespace {

Value comparable(const Value &ReportJson) {
  Value D = api::deterministicReportJson(ReportJson);
  D.remove("engine");
  D.remove("engine_fallback");
  return D;
}

} // namespace

std::string wdmbench::compareWithInterpreter(const api::AnalysisSpec &Spec,
                                             const Value &ReportJson) {
  api::AnalysisSpec Interp = Spec;
  Interp.Search.Engine = "interp";
  Expected<api::Report> R = api::Analyzer::analyze(Interp);
  if (!R)
    return "interpreter run failed: " + R.error();
  std::string Want = comparable(R->toJson()).dump();
  std::string Got = comparable(ReportJson).dump();
  if (Want == Got)
    return "";
  return "report differs from the interpreter-tier run of the same spec";
}

void GslTotals::add(const api::AnalysisSpec &Spec, const api::Report &R) {
  Subject &S = Subjects[Spec.Module.Text];
  ++S.Jobs;
  if (const Value *N = R.Extra.find("num_ops"))
    S.NumOps = static_cast<unsigned>(N->asUint());
  for (const api::Finding &F : R.Findings) {
    if (F.Kind == "overflow")
      S.OverflowSites.insert(F.SiteId);
    if (F.Kind == "inconsistency") {
      if (const Value *B = F.Details.find("bug"); B && B->asBool())
        S.Bugs.insert(F.Description);
    }
  }
}

std::vector<std::string> GslTotals::compare(const Value &Expected) const {
  std::vector<std::string> Bad;
  const Value *Want = Expected.find("subjects");
  if (!Want || !Want->isObject()) {
    Bad.push_back("expected-answer file has no 'subjects'");
    return Bad;
  }
  for (const auto &[Name, E] : Want->members()) {
    auto It = Subjects.find(Name);
    if (It == Subjects.end()) {
      Bad.push_back(Name + ": no reports");
      continue;
    }
    const Subject &S = It->second;
    auto Need = [&](const char *Key, uint64_t Got, bool Exact) {
      const Value *V = E.find(Key);
      if (!V)
        return;
      uint64_t W = V->asUint();
      if (Exact ? Got != W : Got < W)
        Bad.push_back(Name + ": " + Key + " = " + std::to_string(Got) +
                      (Exact ? ", expected " : ", expected at least ") +
                      std::to_string(W));
    };
    Need("num_ops", S.NumOps, true);
    Need("min_overflow_ops", S.OverflowSites.size(), false);
    Need("bugs", S.Bugs.size(), true);
  }
  return Bad;
}

Value GslTotals::toJson() const {
  Value Out = Value::object();
  for (const auto &[Name, S] : Subjects)
    Out.set(Name, Value::object()
                      .set("jobs", Value::number(S.Jobs))
                      .set("num_ops", Value::number(S.NumOps))
                      .set("overflow_ops", Value::number(static_cast<uint64_t>(
                                               S.OverflowSites.size())))
                      .set("bugs", Value::number(
                                       static_cast<uint64_t>(S.Bugs.size()))));
  return Out;
}
