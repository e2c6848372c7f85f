//===--- Oracle.h - Correctness checks not taken from the tier under test -===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three independent checks on what wdm reports:
///  - every witness is re-executed on the exec::Interpreter tier through
///    the analyses' own replay entry points (overflowsAt, hitsFor,
///    directionsTaken, InconsistencyChecker::check, CNF::satisfiedBy);
///  - a report's deterministic view must equal the one an
///    interpreter-tier run of the same spec produces (the repo's tier
///    bit-identity contract), checked on a sample;
///  - the gsl_study totals must match a hand-written expected-answer
///    file in the Table 3 shape.
///
//===----------------------------------------------------------------------===//

#ifndef WDMBENCH_ORACLE_H
#define WDMBENCH_ORACLE_H

#include "api/AnalysisSpec.h"
#include "api/Report.h"
#include "support/Json.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace wdmbench {

class WitnessOracle {
public:
  WitnessOracle();
  ~WitnessOracle();
  WitnessOracle(const WitnessOracle &) = delete;
  WitnessOracle &operator=(const WitnessOracle &) = delete;

  /// Re-executes every finding of \p R; returns one message per witness
  /// the interpreter does not confirm (empty when all hold).
  std::vector<std::string> check(const wdm::api::AnalysisSpec &Spec,
                                 const wdm::api::Report &R);

  uint64_t witnessesChecked() const { return Checked; }
  /// Mean interpreter replay time per checked witness, in microseconds.
  double replayUs() const { return Checked ? ReplayS * 1e6 / Checked : 0; }

private:
  struct Checker;
  Checker &checkerFor(const wdm::api::AnalysisSpec &Spec);

  std::map<std::string, std::unique_ptr<Checker>> Cache;
  uint64_t Checked = 0;
  double ReplayS = 0;
};

/// Runs \p Spec on the interpreter tier and compares deterministic views
/// (engine fields aside) with \p ReportJson. Returns "" on a match.
std::string compareWithInterpreter(const wdm::api::AnalysisSpec &Spec,
                                   const wdm::json::Value &ReportJson);

/// Accumulates gsl_study reports into Table 3 totals per subject.
class GslTotals {
public:
  void add(const wdm::api::AnalysisSpec &Spec, const wdm::api::Report &R);
  /// Compares against the expected-answer file; one message per miss.
  std::vector<std::string> compare(const wdm::json::Value &Expected) const;
  wdm::json::Value toJson() const;

private:
  struct Subject {
    unsigned NumOps = 0;
    std::set<int> OverflowSites;
    std::set<std::string> Bugs;
    unsigned Jobs = 0;
  };
  std::map<std::string, Subject> Subjects;
};

} // namespace wdmbench

#endif // WDMBENCH_ORACLE_H
